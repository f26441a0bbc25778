package sqldb

import (
	"encoding/binary"
	"errors"
	"sync/atomic"

	"zofs/internal/lockprof"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// DB is an open database: a pager, a catalog B-tree mapping table names to
// root pages, and cached table handles. Writers serialize on a database
// lock, as SQLite serializes on its file lock.
type DB struct {
	p       *pager
	lock    lockprof.Mutex
	catalog *btree
	tables  map[string]*btree
	txSeq   atomic.Uint64 // odd while a transaction is open: its number
}

// Open opens (creating if needed) a database file.
func Open(fs vfs.FileSystem, th *proc.Thread, path string) (*DB, error) {
	p, err := openPager(fs, th, path)
	if err != nil {
		return nil, err
	}
	db := &DB{p: p, tables: map[string]*btree{}}
	db.lock.Init("sqldb.db", "")
	if err := db.init(th); err != nil {
		p.close(th) // rolls back a half-made catalog, releases the file
		return nil, err
	}
	return db, nil
}

// init finds the catalog, creating it in a fresh database.
func (db *DB) init(th *proc.Thread) error {
	p := db.p
	catRoot, err := p.loadHeader(th)
	if err != nil {
		return err
	}
	if catRoot != 0 {
		db.catalog = &btree{pg: p, root: catRoot}
		return nil
	}
	// Fresh database: initialize the catalog within a transaction.
	if err := p.begin(th); err != nil {
		return err
	}
	cat, err := newBtree(th, p)
	if err != nil {
		return err
	}
	if err := p.storeHeader(th, cat.root); err != nil {
		return err
	}
	db.catalog = cat
	return p.commit(th)
}

// Close rolls back any open transaction and releases the file.
func (db *DB) Close(th *proc.Thread) error { return db.p.close(th) }

// Tx is an open transaction. All mutations go through a Tx; the journal
// guarantees all-or-nothing visibility across crashes. A Tx is a value that
// names its transaction by number, so beginning one allocates nothing and a
// handle kept past Commit or Rollback is inert, whoever began since.
type Tx struct {
	db  *DB
	th  *proc.Thread
	seq uint64
}

// Begin starts a transaction, taking the database write lock.
func (db *DB) Begin(th *proc.Thread) (Tx, error) {
	db.lock.Lock(th.Clk)
	if err := db.p.begin(th); err != nil {
		db.lock.Unlock(th.Clk)
		return Tx{}, err
	}
	return Tx{db: db, th: th, seq: db.txSeq.Add(1)}, nil
}

// finished reports whether the transaction was committed or rolled back.
func (tx Tx) finished() bool { return tx.db.txSeq.Load() != tx.seq }

// finish retires the handle and releases the database lock.
func (tx Tx) finish() {
	tx.db.txSeq.Add(1)
	tx.db.lock.Unlock(tx.th.Clk)
}

// Commit makes the transaction durable. A commit that fails is rolled back
// from the journal, so the database is left as it was before the
// transaction and the next one can begin.
func (tx Tx) Commit() error {
	if tx.finished() {
		return errors.New("sqldb: transaction finished")
	}
	if err := tx.db.p.commit(tx.th); err != nil {
		tx.Rollback()
		return err
	}
	tx.finish()
	return nil
}

// Rollback undoes the transaction; cached table handles are marked stale
// because their roots may have been rolled back.
func (tx Tx) Rollback() error {
	if tx.finished() {
		return nil
	}
	err := tx.db.p.rollback(tx.th)
	for _, t := range tx.db.tables {
		t.stale = true
	}
	catRoot, herr := tx.db.p.loadHeader(tx.th)
	if herr == nil {
		tx.db.catalog.root = catRoot
	}
	tx.finish()
	if err != nil {
		return err
	}
	return herr
}

// table fetches (or, inside a transaction, creates) a table handle. A stale
// handle, kept through a rollback, resolves its root again as a new one does.
func (db *DB) table(th *proc.Thread, name string, create bool) (*btree, error) {
	t, ok := db.tables[name]
	if ok && !t.stale {
		return t, nil
	}
	v, err := db.catalog.Get(th, []byte(name))
	var root int64
	switch {
	case err == nil:
		root = int64(binary.LittleEndian.Uint64(v))
	case !errors.Is(err, ErrNotFound) || !create:
		return nil, err
	default:
		nt, err := newBtree(th, db.p)
		if err != nil {
			return nil, err
		}
		if err := db.setTableRoot(th, name, nt.root); err != nil {
			return nil, err
		}
		root = nt.root
	}
	if !ok {
		t = &btree{pg: db.p}
		db.tables[name] = t
	}
	t.root, t.stale = root, false
	return t, nil
}

// setTableRoot records a table's root page in the catalog, following the
// catalog's own root if it splits.
func (db *DB) setTableRoot(th *proc.Thread, name string, root int64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(root))
	oldCat := db.catalog.root
	if err := db.catalog.Put(th, []byte(name), buf[:]); err != nil {
		return err
	}
	if db.catalog.root != oldCat {
		return db.p.storeHeader(th, db.catalog.root)
	}
	return nil
}

// CreateTable ensures a table exists.
func (tx Tx) CreateTable(name string) error {
	_, err := tx.db.table(tx.th, name, true)
	return err
}

// Put inserts or replaces a row. key and val are the caller's own bytes, not
// views that Get or Scan returned: the write moves what those show.
func (tx Tx) Put(table string, key, val []byte) error {
	t, err := tx.db.table(tx.th, table, true)
	if err != nil {
		return err
	}
	old := t.root
	if err := t.Put(tx.th, key, val); err != nil {
		return err
	}
	if t.root != old {
		return tx.db.setTableRoot(tx.th, table, t.root)
	}
	return nil
}

// Get reads a row inside the transaction. The value is a view of the cached
// page: it is valid until the transaction's next Put, Delete or Rollback
// (copy what must outlive that), and the caller must not write through it.
func (tx Tx) Get(table string, key []byte) ([]byte, error) {
	t, err := tx.db.table(tx.th, table, false)
	if err != nil {
		return nil, err
	}
	return t.Get(tx.th, key)
}

// Delete removes a row.
func (tx Tx) Delete(table string, key []byte) error {
	t, err := tx.db.table(tx.th, table, false)
	if err != nil {
		return err
	}
	return t.Delete(tx.th, key)
}

// Scan iterates rows with key >= start until fn returns false. key and val
// are views as Get's value is, and fn must not write to the database.
func (tx Tx) Scan(table string, start []byte, fn func(key, val []byte) bool) error {
	t, err := tx.db.table(tx.th, table, false)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			return nil
		}
		return err
	}
	return t.Scan(tx.th, start, fn)
}

// Get performs a read-only lookup outside any transaction and returns a copy
// of the value: no transaction bounds a view's life here.
func (db *DB) Get(th *proc.Thread, table, key string) ([]byte, error) {
	db.lock.Lock(th.Clk)
	defer db.lock.Unlock(th.Clk)
	t, err := db.table(th, table, false)
	if err != nil {
		return nil, err
	}
	v, err := t.Get(th, []byte(key))
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), v...), nil
}

// Scan performs a read-only range scan outside any transaction, with each
// key as a string of its own; val is a view, valid until fn returns.
func (db *DB) Scan(th *proc.Thread, table, start string, fn func(key string, val []byte) bool) error {
	db.lock.Lock(th.Clk)
	defer db.lock.Unlock(th.Clk)
	t, err := db.table(th, table, false)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			return nil
		}
		return err
	}
	return t.Scan(th, []byte(start), func(k, v []byte) bool { return fn(string(k), v) })
}
