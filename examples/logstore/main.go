// logstore: an append-heavy event store on the log-structured µFS (paper
// §5.3 — "file systems can be customized for specific purposes ... a
// log-structured file system can be implemented as a µFS in Treasury").
//
// A ZoFS root namespace hosts a LogFS coffer at /events; the FSLibs
// dispatcher routes operations to the right µFS by coffer type, so the
// application uses one POSIX layer for both. The demo appends event
// batches, crashes the machine mid-stream, remounts, and shows the log
// replay recovering every committed record; finally the cleaner compacts
// the log after old segments are deleted.
package main

import (
	"fmt"
	"log"

	"zofs/internal/logfs"
	"zofs/internal/sysfactory"
	"zofs/internal/vfs"
	"zofs/internal/zofs"
)

const (
	segments  = 8
	batches   = 200
	eventSize = 128
)

func main() {
	// A ZoFS machine on a persistence-tracked device: tracking must be on
	// for the crash below to actually drop unflushed stores; the device
	// refuses to Crash() untracked.
	in, err := sysfactory.ZoFS.New(1<<30, true)
	must(err)
	dev, k, lib, th := in.Dev, in.Kern, in.Lib, in.Thread

	// Carve out a LogFS coffer: the kernel tags it TypeLogFS and the
	// dispatcher hands every path under /events to the log-structured µFS.
	_, err = k.CofferNew(th, k.RootCoffer(), "/events", logfs.TypeLogFS, 0o755, 0, 0, 4)
	must(err)

	fmt.Println("== one namespace, two µFSs ==")
	fd, err := lib.Open(th, "/manifest.json", vfs.O_CREATE|vfs.O_WRONLY, 0o644)
	must(err)
	_, err = lib.Write(th, fd, []byte(`{"store":"/events","format":"v1"}`))
	must(err)
	must(lib.Close(th, fd))
	fmt.Println("wrote /manifest.json (ZoFS coffer)")

	// Append event batches into per-segment log files.
	event := make([]byte, eventSize)
	for i := range event {
		event[i] = byte('A' + i%23)
	}
	written := 0
	for s := 0; s < segments; s++ {
		fd, err := lib.Open(th, fmt.Sprintf("/events/seg%03d.log", s), vfs.O_CREATE|vfs.O_WRONLY, 0o644)
		must(err)
		for b := 0; b < batches; b++ {
			n, err := lib.Write(th, fd, event)
			must(err)
			written += n
		}
		must(lib.Close(th, fd))
	}
	fmt.Printf("appended %d segments × %d events (%d KB) into the LogFS coffer\n",
		segments, batches, written>>10)

	// Crash mid-stream: an open segment with half a batch in flight.
	fd, err = lib.Open(th, "/events/seg-open.log", vfs.O_CREATE|vfs.O_WRONLY, 0o644)
	must(err)
	_, err = lib.Write(th, fd, event)
	must(err)
	fmt.Println("\n== crash (unflushed stores dropped, volatile index lost) ==")
	dev.Crash()

	// Reboot: LogFS rebuilds its namespace by replaying the record log up
	// to the last committed tail pointer.
	in2, err := sysfactory.Boot(dev, zofs.Options{})
	must(err)
	lib2, th2 := in2.Lib, in2.Thread

	fi, err := lib2.Stat(th2, "/manifest.json")
	must(err)
	fmt.Printf("ZoFS file survived: /manifest.json (%d bytes)\n", fi.Size)

	recovered, bytes := 0, int64(0)
	ents, err := lib2.ReadDir(th2, "/events")
	must(err)
	for _, e := range ents {
		fi, err := lib2.Stat(th2, "/events/"+e.Name)
		must(err)
		recovered++
		bytes += fi.Size
	}
	fmt.Printf("log replay recovered %d segments, %d KB of committed events\n",
		recovered, bytes>>10)
	if want := int64(segments * batches * eventSize); bytes < want {
		log.Fatalf("lost committed data: %d < %d", bytes, want)
	}

	// Retire old segments; the cleaner compacts the log and returns cold
	// pages to the kernel via coffer_shrink.
	for s := 0; s < segments/2; s++ {
		must(lib2.Unlink(th2, fmt.Sprintf("/events/seg%03d.log", s)))
	}
	fmt.Printf("\nretired %d segments; cleaner compacts and shrinks the coffer\n", segments/2)

	live := 0
	ents, err = lib2.ReadDir(th2, "/events")
	must(err)
	for range ents {
		live++
	}
	fmt.Printf("%d segments remain; store is consistent after crash + compaction\n", live)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
