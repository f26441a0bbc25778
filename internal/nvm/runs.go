package nvm

// ForEachRun splits the file byte range [from, to) into runs and calls fn for
// each, in file order. pages[i] is the device page holding file block
// first+i; zero, or a block past the slice, is a hole. A run is a maximal
// range of those blocks whose pages are consecutive on the device — what one
// streaming access can cover, paying the media latency once — or a maximal
// range of holes. fn gets the device offset of the run's first byte (-1 for a
// hole) and the file range [from, to) the run maps.
func ForEachRun(pages []int64, first, from, to int64, fn func(dev, from, to int64)) {
	page := func(blk int64) int64 {
		if i := blk - first; i < int64(len(pages)) {
			return pages[i]
		}
		return 0
	}
	for from < to {
		blk := from / PageSize
		pg, n := page(blk), int64(1)
		for (blk+n)*PageSize < to {
			next := page(blk + n)
			if (pg == 0 && next != 0) || (pg != 0 && next != pg+n) {
				break
			}
			n++
		}
		end := min(to, (blk+n)*PageSize)
		dev := int64(-1)
		if pg != 0 {
			dev = pg*PageSize + from%PageSize
		}
		fn(dev, from, end)
		from = end
	}
}
