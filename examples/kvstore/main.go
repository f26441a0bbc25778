// kvstore: the paper's LevelDB scenario — an LSM-tree key/value store
// running its write-ahead log, memtable flushes and compactions on ZoFS
// versus a kernel NVM file system, comparing virtual-time latencies
// (Table 7 in miniature).
package main

import (
	"fmt"
	"log"

	"zofs/internal/lsmdb"
	"zofs/internal/sysfactory"
)

func main() {
	const n = 20000
	fmt.Printf("LSM KV store, %d ops per workload (16B keys, 100B values)\n\n", n)
	fmt.Printf("%-14s %12s %12s %12s\n", "workload", "ZoFS", "Ext4-DAX", "speedup")
	for _, op := range []lsmdb.BenchOp{lsmdb.WriteSync, lsmdb.WriteRand, lsmdb.ReadRand, lsmdb.DeleteRand} {
		z := run(sysfactory.ZoFS, op, n)
		e := run(sysfactory.Ext4DAX, op, n)
		fmt.Printf("%-14s %9.2fµs %9.2fµs %11.2fx\n", op, z, e, e/z)
	}

	// Durability: the WAL survives an unclean shutdown.
	in, err := sysfactory.ZoFS.New(1<<30, false)
	if err != nil {
		log.Fatal(err)
	}
	th := in.Proc.NewThread()
	db, err := lsmdb.Open(in.FS, th, lsmdb.Options{Dir: "/wal-demo", SyncWrites: true})
	if err != nil {
		log.Fatal(err)
	}
	must(db.Put(th, "account:42", []byte("balance=1000")))
	// No Close: the process "dies". Reopen replays the WAL.
	db2, err := lsmdb.Open(in.FS, th, lsmdb.Options{Dir: "/wal-demo"})
	must(err)
	v, err := db2.Get(th, "account:42")
	must(err)
	fmt.Printf("\nWAL replay after unclean shutdown: account:42 -> %q\n", v)
}

func run(sys sysfactory.System, op lsmdb.BenchOp, n int) float64 {
	in, err := sys.New(4<<30, false)
	if err != nil {
		log.Fatal(err)
	}
	r, err := lsmdb.RunBench(in.FS, in.Proc, op, n)
	if err != nil {
		log.Fatal(err)
	}
	return r.MicrosPerOp
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
