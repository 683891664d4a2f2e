package temporal

// rowArena hands out Row slices carved from large blocks, cutting the
// per-event allocation count on hot operator paths (project, join
// output, group-key prepend, aggregate payloads). Each returned slice is
// full-capacity-clipped so appends by consumers can never bleed into a
// neighbouring row. Arenas are single-goroutine, like the operators that
// own them.
type rowArena struct {
	buf   []Value
	block int
}

const arenaMaxBlock = 8192

func (a *rowArena) alloc(n int) Row {
	if n > arenaMaxBlock {
		return make(Row, n)
	}
	if len(a.buf) < n {
		// Grow blocks geometrically from a tiny start: a plan is compiled
		// once per reducer partition and per streaming shard, so there can
		// be thousands of arenas and many see only a handful of rows.
		if a.block < arenaMaxBlock {
			a.block *= 4
			if a.block < 16 {
				a.block = 16
			}
			if a.block > arenaMaxBlock {
				a.block = arenaMaxBlock
			}
		}
		size := a.block
		if size < n {
			size = n
		}
		a.buf = make([]Value, size)
	}
	r := a.buf[:n:n]
	a.buf = a.buf[n:]
	return r
}
