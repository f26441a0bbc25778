// Package byteflow defines the byte-flow accounting vocabulary shared by the
// device, the file systems and the reporting tools: the byte-class taxonomy
// every persisted write is tagged with, the Flow snapshot that reconciles
// application bytes against FS-issued bytes against media bytes, per-page
// wear records and per-coffer space records.
//
// The package is data plus its renderers — it imports nothing else of the
// repository's — so any layer (simclock, nvm, zofs, kernfs, the harness) can
// use it without import cycles.
package byteflow

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// Class labels the file-system intent behind one persisted write. The zero
// value is the residual class: writes issued with no tag (bulk-charged
// stores, tooling) land there, so the classes always sum to the issued
// total — the byte analogue of the spans CompOther residual.
type Class uint8

const (
	// ClassOther is the untagged residual.
	ClassOther Class = iota
	// ClassData is file content (including inline data and zeroed
	// head/tail fill of freshly allocated data blocks).
	ClassData
	// ClassDentry is directory structure: dentry records, bucket and chain
	// page pointers.
	ClassDentry
	// ClassInode is inode metadata: headers, size/mtime words, block
	// pointers, indirect pages, symlink targets.
	ClassInode
	// ClassJournal is journaling/logging traffic (baselines' redo logs).
	ClassJournal
	// ClassAlloc is allocator metadata: the kernel allocation table,
	// lease/pool slots and free-list chains.
	ClassAlloc

	NumClasses = int(ClassAlloc) + 1
)

var classNames = [NumClasses]string{"other", "data", "dentry", "inode", "journal", "alloc"}

// String returns the class's short lowercase name.
func (c Class) String() string {
	if int(c) < NumClasses {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Classes returns every class in enum order (rendering, export).
func Classes() []Class {
	out := make([]Class, NumClasses)
	for i := range out {
		out[i] = Class(i)
	}
	return out
}

// Flow is a point-in-time reconciliation of where write bytes went, three
// layers deep:
//
//	App    — bytes the application asked the file system to write
//	Issued — bytes the file system issued to the device, by class
//	        (NT stores, cached stores, atomic word stores, zeroing)
//	NT / Lines — how the issued bytes reached media: persisted-at-issue
//	        bytes (nt-store family) and flushed cache lines
//
// Conservation holds by construction when the accounting is correct:
// IssuedTotal() must equal Total exactly (every issued byte has exactly one
// class, residual included), and for write-heavy workloads
// MediaBytes() >= IssuedTotal() >= App (flushing persists whole cache
// lines; the FS writes metadata beyond the app's payload).
type Flow struct {
	// App is application-requested write bytes (payload actually written).
	App int64 `json:"app_bytes"`
	// Total is every byte issued to the device, counted independently of
	// the per-class split so conservation is a real cross-check.
	Total int64 `json:"issued_bytes"`
	// Issued is the per-class split of Total.
	Issued [NumClasses]int64 `json:"issued_by_class"`
	// NT is the per-class persisted-at-issue byte count (WriteNT,
	// Store64/CAS64, Zero, WriteView) — bytes that reached media without
	// needing a flush.
	NT [NumClasses]int64 `json:"nt_by_class"`
	// Lines is the per-class count of cache lines pushed by Flush.
	Lines [NumClasses]int64 `json:"flush_lines_by_class"`
	// Flushes and Fences are the persist-instruction counts.
	Flushes int64 `json:"flushes"`
	Fences  int64 `json:"fences"`
	// LineSize is the cache-line size used to convert Lines to bytes.
	LineSize int64 `json:"line_size"`
}

// IssuedTotal sums the per-class issued bytes.
func (f *Flow) IssuedTotal() int64 {
	var t int64
	for _, v := range f.Issued {
		t += v
	}
	return t
}

// MediaBytes estimates bytes that crossed the memory bus to media:
// persisted-at-issue bytes plus one full line per flushed cache line.
func (f *Flow) MediaBytes() int64 {
	var nt, ln int64
	for i := range f.NT {
		nt += f.NT[i]
		ln += f.Lines[i]
	}
	return nt + ln*f.LineSize
}

// WA returns the write-amplification factor media/app (0 when no app bytes
// were written).
func (f *Flow) WA() float64 {
	if f.App <= 0 {
		return 0
	}
	return float64(f.MediaBytes()) / float64(f.App)
}

// Sub returns f minus prev, field by field (interval accounting).
func (f *Flow) Sub(prev *Flow) *Flow {
	if prev == nil {
		cp := *f
		return &cp
	}
	d := &Flow{
		App:      f.App - prev.App,
		Total:    f.Total - prev.Total,
		Flushes:  f.Flushes - prev.Flushes,
		Fences:   f.Fences - prev.Fences,
		LineSize: f.LineSize,
	}
	for i := 0; i < NumClasses; i++ {
		d.Issued[i] = f.Issued[i] - prev.Issued[i]
		d.NT[i] = f.NT[i] - prev.NT[i]
		d.Lines[i] = f.Lines[i] - prev.Lines[i]
	}
	return d
}

// Conserved verifies the exact-sum invariant: the per-class issued bytes
// must sum to the independently counted issued total, and the media
// estimate must cover every issued byte. Returns nil when the flow
// reconciles.
func (f *Flow) Conserved() error {
	if got, want := f.IssuedTotal(), f.Total; got != want {
		return fmt.Errorf("byteflow: classes sum to %d issued bytes, device counted %d (residual leak %+d)",
			got, want, want-got)
	}
	if f.App > 0 && f.Total < f.App {
		// Overwrites of flushed cached lines can make media < issued, but
		// the FS can never issue fewer bytes than the app handed it.
		return fmt.Errorf("byteflow: issued %d bytes < app %d bytes", f.Total, f.App)
	}
	return nil
}

// WriteText renders the reconciliation line and the per-class table (classes
// that moved no bytes are left out).
func (f *Flow) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "byte flow: app %d  issued %d  media %d  WA %.2f  flushes %d  fences %d\n",
		f.App, f.Total, f.MediaBytes(), f.WA(), f.Flushes, f.Fences)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "class\tissued\tnt\tflush_lines")
	for _, c := range Classes() {
		if f.Issued[c] == 0 && f.NT[c] == 0 && f.Lines[c] == 0 {
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\n", c, f.Issued[c], f.NT[c], f.Lines[c])
	}
	return tw.Flush()
}

// PageWear is the wear-heatmap record of one device page.
type PageWear struct {
	Page    int64  `json:"page"`
	Coffer  uint64 `json:"coffer,omitempty"` // owning coffer, 0 when unknown
	Writes  int64  `json:"writes"`
	Bytes   int64  `json:"bytes"`
	Flushes int64  `json:"flushes,omitempty"`
}

// WriteWearText renders the n most-written pages of a wear report.
func WriteWearText(w io.Writer, wear []PageWear, n int) error {
	hot := append([]PageWear(nil), wear...)
	sort.Slice(hot, func(i, j int) bool { return hot[i].Writes > hot[j].Writes })
	if n > len(hot) {
		n = len(hot)
	}
	fmt.Fprintf(w, "hottest pages (%d of %d worn):\n", n, len(wear))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "page\tcoffer\twrites\tbytes\tflushes")
	for _, pw := range hot[:n] {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\n", pw.Page, pw.Coffer, pw.Writes, pw.Bytes, pw.Flushes)
	}
	return tw.Flush()
}

// CofferSpace is one coffer's space-accounting row: the kernel's grant
// (Pages), the µFS allocator's idle inventory inside that grant (FreeListed
// persists on NVM, Cached is volatile per-thread batches), the derived
// in-use count, and a fragmentation score from the grant's extent
// distribution (0 = one contiguous run, 1 = maximally scattered).
type CofferSpace struct {
	ID         uint64  `json:"id"`
	Path       string  `json:"path,omitempty"`
	Pages      int64   `json:"pages"`
	FreeListed int64   `json:"free_listed"`
	Cached     int64   `json:"cached"`
	Used       int64   `json:"used"`
	Extents    int64   `json:"extents"`
	Frag       float64 `json:"frag"`
}

// Space is a file system's per-coffer space report.
type Space []CofferSpace

// WriteText renders the per-coffer space table.
func (rows Space) WriteText(w io.Writer) error {
	fmt.Fprintln(w, "coffer space:")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "coffer\tpath\tpages\tused\tfree_listed\tcached\textents\tfrag")
	for _, cs := range rows {
		fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%d\t%d\t%d\t%.3f\n",
			cs.ID, cs.Path, cs.Pages, cs.Used, cs.FreeListed, cs.Cached, cs.Extents, cs.Frag)
	}
	return tw.Flush()
}

// FragScore computes the fragmentation score of a grant held in `extents`
// runs over `pages` pages: (extents-1)/(pages-1), i.e. the fraction of
// adjacent page pairs that break contiguity. Single-page and empty grants
// score 0.
func FragScore(extents, pages int64) float64 {
	if pages <= 1 || extents <= 1 {
		return 0
	}
	return float64(extents-1) / float64(pages-1)
}
