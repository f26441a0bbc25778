// webfiles: the paper's web-server motivation — a document tree served by
// concurrent reader threads with an access log appended per request,
// through the FSLibs POSIX layer (FD table, cwd, dup). Shows multi-process
// sharing: a publisher process updates documents while reader processes
// serve them.
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"sync"

	"zofs/internal/fslibs"
	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

const (
	nDocs    = 500
	docSize  = 16 << 10
	nReaders = 4
	requests = 2000
)

func main() { run(os.Stdout) }

// run serves the demo and writes its narrative to w.
func run(w io.Writer) {
	dev := nvm.New(nvm.Config{Size: 2 << 30, TrackPersistence: false})
	must(kernfs.Mkfs(dev, kernfs.MkfsOptions{RootMode: 0o755}))
	k, err := kernfs.Mount(dev)
	must(err)

	// The publisher process owns the document tree.
	pub := proc.NewProcess(dev, 0, 0)
	pth := pub.NewThread()
	plib, err := fslibs.Mount(k, pth, fslibs.Options{})
	must(err)
	must(plib.ZoFS().EnsureRootDir(pth))
	must(plib.Mkdir(pth, "/www", 0o755))
	must(plib.Mkdir(pth, "/www/docs", 0o755))
	must(plib.Mkdir(pth, "/www/logs", 0o755))

	doc := make([]byte, docSize)
	for i := range doc {
		doc[i] = byte('a' + i%26)
	}
	for i := 0; i < nDocs; i++ {
		fd, err := plib.Open(pth, fmt.Sprintf("/www/docs/page%04d.html", i), vfs.O_CREATE|vfs.O_WRONLY, 0o644)
		must(err)
		_, err = plib.Write(pth, fd, doc)
		must(err)
		must(plib.Close(pth, fd))
	}
	fmt.Fprintf(w, "published %d documents (%d KB each)\n", nDocs, docSize>>10)

	// Reader processes serve requests: open, read whole file, close,
	// append one access-log line (the webserver personality's flow).
	var wg sync.WaitGroup
	served := make([]int, nReaders)
	vtime := make([]int64, nReaders)
	for r := 0; r < nReaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			p := proc.NewProcess(dev, 0, 0)
			th := p.NewThread()
			lib, err := fslibs.Mount(k, th, fslibs.Options{})
			must(err)
			must(lib.Chdir(th, "/www/docs")) // relative paths via the cwd
			logFD, err := lib.Open(th, fmt.Sprintf("/www/logs/access-%d.log", r),
				vfs.O_CREATE|vfs.O_WRONLY|vfs.O_APPEND, 0o644)
			must(err)
			rng := rand.New(rand.NewSource(int64(r)))
			buf := make([]byte, docSize)
			for i := 0; i < requests/nReaders; i++ {
				name := fmt.Sprintf("page%04d.html", rng.Intn(nDocs))
				fd, err := lib.Open(th, name, vfs.O_RDONLY, 0)
				must(err)
				if _, err := lib.Read(th, fd, buf); err != nil {
					log.Fatal(err)
				}
				must(lib.Close(th, fd))
				line := fmt.Sprintf("GET /%s 200 %d\n", name, docSize)
				if _, err := lib.Write(th, logFD, []byte(line)); err != nil {
					log.Fatal(err)
				}
				served[r]++
			}
			vtime[r] = th.Clk.Now()
		}(r)
	}
	wg.Wait()

	total, maxNS := 0, int64(0)
	for r := 0; r < nReaders; r++ {
		total += served[r]
		if vtime[r] > maxNS {
			maxNS = vtime[r]
		}
	}
	fmt.Fprintf(w, "served %d requests with %d reader processes in %.2fms virtual time (%.0f req/s)\n",
		total, nReaders, float64(maxNS)/1e6, float64(total)/(float64(maxNS)/1e9))

	fi, err := plib.Stat(pth, "/www/logs/access-0.log")
	must(err)
	fmt.Fprintf(w, "access-0.log: %d bytes of appended log lines\n", fi.Size)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
