package main

// Example runs the three protection scenarios — stray writes, a corrupted
// coffer, online recovery — and checks their transcript, which is
// deterministic.
func Example() {
	main()
	// Output:
	// Scenario 1: stray writes from buggy application code
	//   200/200 stray writes stopped by MPK + page table
	//   e.g. mpk violation: write page 109538 key 0 pkru=0x0055555554: page not mapped
	//   P2's view of /shared/data: intact
	// Scenario 2: coffer corrupted through a legitimate mapping
	//   P2 received a graceful file system error: vfs: file system structure corrupted: bad dir inode magic at "/shared" ino 269
	//   P2 is still running (no SIGSEGV) and other coffers work:
	//   created /shared2 just fine
	// Scenario 3: online recovery of the corrupted coffer
	//   recovered: kept 3 pages, reclaimed 5, dropped 1 corrupt entries (user 0µs, kernel 2µs)
	//   /shared is accessible again
}
