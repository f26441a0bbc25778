package main

// Example runs the whole demo — append, crash, replay, retire, and the two
// listings of /events — and checks its transcript, which is deterministic.
func Example() {
	main()
	// Output:
	// == one namespace, two µFSs ==
	// wrote /manifest.json (ZoFS coffer)
	// appended 8 segments × 200 events (200 KB) into the LogFS coffer
	//
	// == crash (unflushed stores dropped, volatile index lost) ==
	// ZoFS file survived: /manifest.json (33 bytes)
	// log replay recovered 9 segments, 200 KB of committed events
	//
	// retired 4 segments; cleaner compacts and shrinks the coffer
	// 5 segments remain; store is consistent after crash + compaction
}
