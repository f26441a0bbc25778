package nvm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Device images let the command-line tools (zofs-mkfs, zofs-fsck,
// zofs-shell) persist a simulated NVM DIMM to an ordinary host file and
// reopen it later — the stand-in for a real /dev/pmem device. The format
// stores only materialized chunks: header {magic, size, chunkBytes},
// then {chunkIndex u64, chunkBytes bytes} records, terminated by ^uint64(0).

const imageMagic = 0x5A6F46535F494D47 // "ZoFS_IMG"

// SaveImage writes the device image (sparse: only touched chunks).
func (d *Device) SaveImage(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint64(hdr[0:], imageMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(d.size))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(chunkBytes))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	var idx [8]byte
	for i := range d.chunks {
		c := d.chunks[i].Load()
		if c == nil {
			continue
		}
		binary.LittleEndian.PutUint64(idx[:], uint64(i))
		if _, err := bw.Write(idx[:]); err != nil {
			return err
		}
		if _, err := bw.Write(c[:]); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint64(idx[:], ^uint64(0))
	if _, err := bw.Write(idx[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadImage reads a device image saved by SaveImage.
func LoadImage(r io.Reader) (*Device, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	hdr := make([]byte, 24)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint64(hdr[0:]) != imageMagic {
		return nil, fmt.Errorf("nvm: not a device image")
	}
	size := int64(binary.LittleEndian.Uint64(hdr[8:]))
	if cb := binary.LittleEndian.Uint64(hdr[16:]); cb != chunkBytes {
		return nil, fmt.Errorf("nvm: image chunk size %d unsupported", cb)
	}
	d := New(Config{Size: size, TrackPersistence: true})
	var idx [8]byte
	for {
		if _, err := io.ReadFull(br, idx[:]); err != nil {
			return nil, err
		}
		i := binary.LittleEndian.Uint64(idx[:])
		if i == ^uint64(0) {
			return d, nil
		}
		if i >= uint64(len(d.chunks)) {
			return nil, fmt.Errorf("nvm: image chunk %d out of range", i)
		}
		if _, err := io.ReadFull(br, d.chunkFor(int64(i)*chunkBytes, true)[:]); err != nil {
			return nil, err
		}
	}
}
