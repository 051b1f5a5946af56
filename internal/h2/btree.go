package h2

// An in-memory B+tree mapping int64 primary keys to uint64 row locators.
// H2 proper persists its indexes in the MVStore; here the index is
// volatile and rebuilt by scanning the row pages at open — a legitimate
// recovery design (the pages are the durable truth) that keeps index
// maintenance off the crash-consistency critical path. See the substrate
// note in docs/benchmarks.md.

const btreeOrder = 64 // max keys per node

type btreeNode struct {
	leaf     bool
	keys     []int64
	vals     []uint64     // leaves only
	children []*btreeNode // interior only
	next     *btreeNode   // leaf chain for range scans
}

// BTree is the index structure.
type BTree struct {
	root *btreeNode
	size int
}

// NewBTree creates an empty tree.
func NewBTree() *BTree {
	return &BTree{root: &btreeNode{leaf: true}}
}

// Len reports the number of keys.
func (t *BTree) Len() int { return t.size }

func (n *btreeNode) search(key int64) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get looks up a key.
func (t *BTree) Get(key int64) (uint64, bool) {
	n := t.root
	for !n.leaf {
		i := n.search(key)
		if i < len(n.keys) && n.keys[i] == key {
			i++
		}
		n = n.children[i]
	}
	i := n.search(key)
	if i < len(n.keys) && n.keys[i] == key {
		return n.vals[i], true
	}
	return 0, false
}

// Put inserts or updates a key.
func (t *BTree) Put(key int64, val uint64) {
	midKey, right := t.root.insert(key, val, t)
	if right != nil {
		t.root = &btreeNode{
			keys:     []int64{midKey},
			children: []*btreeNode{t.root, right},
		}
	}
}

// insert returns a (separator, newRight) pair when the node split.
func (n *btreeNode) insert(key int64, val uint64, t *BTree) (int64, *btreeNode) {
	if n.leaf {
		i := n.search(key)
		if i < len(n.keys) && n.keys[i] == key {
			n.vals[i] = val
			return 0, nil
		}
		n.keys = append(n.keys, 0)
		n.vals = append(n.vals, 0)
		copy(n.keys[i+1:], n.keys[i:])
		copy(n.vals[i+1:], n.vals[i:])
		n.keys[i] = key
		n.vals[i] = val
		t.size++
		if len(n.keys) <= btreeOrder {
			return 0, nil
		}
		mid := len(n.keys) / 2
		right := &btreeNode{
			leaf: true,
			keys: append([]int64(nil), n.keys[mid:]...),
			vals: append([]uint64(nil), n.vals[mid:]...),
			next: n.next,
		}
		n.keys = n.keys[:mid]
		n.vals = n.vals[:mid]
		n.next = right
		return right.keys[0], right
	}
	i := n.search(key)
	if i < len(n.keys) && n.keys[i] == key {
		i++
	}
	sep, right := n.children[i].insert(key, val, t)
	if right == nil {
		return 0, nil
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = sep
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
	if len(n.keys) <= btreeOrder {
		return 0, nil
	}
	mid := len(n.keys) / 2
	sepUp := n.keys[mid]
	r := &btreeNode{
		keys:     append([]int64(nil), n.keys[mid+1:]...),
		children: append([]*btreeNode(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	return sepUp, r
}

// Delete removes a key, reporting whether it was present. Leaves may
// underflow (no rebalancing); lookups and scans stay correct, and the
// tree is rebuilt compact at every database open.
func (t *BTree) Delete(key int64) bool {
	n := t.root
	for !n.leaf {
		i := n.search(key)
		if i < len(n.keys) && n.keys[i] == key {
			i++
		}
		n = n.children[i]
	}
	i := n.search(key)
	if i < len(n.keys) && n.keys[i] == key {
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.vals = append(n.vals[:i], n.vals[i+1:]...)
		t.size--
		return true
	}
	return false
}

// Scan visits keys in [from, to] in order; fn returns false to stop.
func (t *BTree) Scan(from, to int64, fn func(key int64, val uint64) bool) {
	n := t.root
	for !n.leaf {
		i := n.search(from)
		if i < len(n.keys) && n.keys[i] == from {
			i++
		}
		n = n.children[i]
	}
	for n != nil {
		for i, k := range n.keys {
			if k < from {
				continue
			}
			if k > to {
				return
			}
			if !fn(k, n.vals[i]) {
				return
			}
		}
		n = n.next
	}
}
