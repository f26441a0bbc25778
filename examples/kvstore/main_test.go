package main

// Example runs the four KV workloads on both systems and the WAL replay,
// and checks the transcript: every latency is virtual time, so it is
// deterministic.
func Example() {
	main()
	// Output:
	// LSM KV store, 20000 ops per workload (16B keys, 100B values)
	//
	// workload               ZoFS     Ext4-DAX      speedup
	// Write sync.         0.43µs      1.50µs        3.51x
	// Write rand.         0.43µs      1.32µs        3.07x
	// Read rand.          0.62µs      2.51µs        4.06x
	// Delete rand.        0.40µs      1.27µs        3.19x
	//
	// WAL replay after unclean shutdown: account:42 -> "balance=1000"
}
