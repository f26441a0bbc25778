package main

// Example runs the whole walkthrough — write, symlink, chmod split, crash,
// fsck — and checks its transcript, which is deterministic.
func Example() {
	main()
	// Output:
	// read back: "coffers separate protection from management\n"
	// via symlink: file, 44 bytes, mode 644
	// coffer 137    path=/                      mode=755
	// coffer 53248  path=/projects/secret.key   mode=600
	// chmod split the coffer: 2 -> 3 coffers
	// after crash: fsck checked 3 coffers, reclaimed 6 pages
	// post-recovery: notes.txt 44 bytes, mode 600 (coffer 159)
}
