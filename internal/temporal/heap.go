package temporal

// minHeap is container/heap over a typed slice: the same sift steps in the
// same order, so entries with equal keys leave in the order they always
// did (a float accumulator's last bit depends on the order expirations are
// removed in), but elements are never boxed: push and pop do not allocate.
type minHeap[T any] struct {
	items []T
	less  func(a, b T) bool
}

func (h *minHeap[T]) push(x T) {
	h.items = append(h.items, x)
	s := h.items
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !h.less(s[j], s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// pop removes and returns the least element; the heap must not be empty.
func (h *minHeap[T]) pop() T {
	s := h.items
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	h.down(n)
	x := s[n]
	clear(s[n:]) // the spare capacity must not pin x's row
	h.items = s[:n]
	return x
}

// fixTop restores heap order after the least element's key grew in place:
// a k-way merge advances its front cursor with one sift instead of a pop
// and a push.
func (h *minHeap[T]) fixTop() { h.down(len(h.items)) }

// down sifts the root into place among the first n items.
func (h *minHeap[T]) down(n int) {
	s := h.items
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && h.less(s[r], s[j]) {
			j = r
		}
		if !h.less(s[j], s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
}
