package pheap_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pheap"
	"espresso/internal/pindex"
)

// What a loaded image holds, in the three views the loader's contract is
// stated in: the object parse, the named roots, the map's contents.
type imageContent struct {
	parse string // every object: offset, class, size
	roots string
	pmap  string // key → value's payload
}

// readContent loads the image's content through the public loader path —
// ForEachObject, Roots, pindex.Open + Scan — converting a panic anywhere
// on it into an error (the contract under test is "never panic").
func readContent(h *pheap.Heap) (c imageContent, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	var b strings.Builder
	if err := h.ForEachObject(func(off int, k *klass.Klass, size int) bool {
		if !pheap.IsFiller(k) { // Load plugs a half-open PLAB with a filler
			fmt.Fprintf(&b, "%d %s %d\n", off, k.Name, size)
		}
		return true
	}); err != nil {
		return c, err
	}
	c.parse = b.String()
	roots := h.Roots()
	slices.SortFunc(roots, func(a, b pheap.Root) int { return strings.Compare(a.Name, b.Name) })
	for _, r := range roots {
		c.roots += fmt.Sprintf("%s=%#x\n", r.Name, uint64(r.Ref))
	}
	ix, err := pindex.Open(h, pindex.NoPin{}, "map", pindex.Options{})
	if err != nil {
		return c, err
	}
	ctx := ix.NewCtx()
	defer ctx.Release()
	var pairs []string
	ctx.Scan(func(key int64, val layout.Ref) bool {
		pairs = append(pairs, fmt.Sprintf("%d=%d", key, h.GetWord(val, layout.FieldOff(0))))
		return true
	})
	slices.Sort(pairs)
	c.pmap = strings.Join(pairs, "\n")
	return c, nil
}

// TestMetadataBlockSingleBitFlips is the loader's "never panic, never
// fabricate" contract, exhaustively, over the metadata block: every
// single-bit flip of its 240 bytes on a 2 MB heap holding a 3000-node
// chain and a 2000-key map, through Scrub, Load and LoadSalvage and then
// everything a caller does with a loaded heap. Per flip and mode there is
// no panic, and either the image is refused (an error, or for Scrub a
// finding) or what loads is exactly what was stored; and Scrub tells the
// truth about the loaders — what they refuse it flags, what it cannot read
// they do not load. The global timestamp is the one word whose flip used
// to load intact; it now decides which bytes above a region top are
// objects, so every flip of it or of its checksum word must be refused and
// flagged.
func TestMetadataBlockSingleBitFlips(t *testing.T) {
	const metadataBytes = 240
	reg := klass.NewRegistry()
	h, err := pheap.Create(reg, pheap.Config{DataSize: 2 << 20, Mode: nvm.Tracked})
	if err != nil {
		t.Fatal(err)
	}
	node, err := reg.Define(klass.MustInstance("flip/Node", nil,
		klass.Field{Name: "v", Type: layout.FTLong}, klass.Field{Name: "next", Type: layout.FTRef}))
	if err != nil {
		t.Fatal(err)
	}
	var head layout.Ref
	nodes := make([]layout.Ref, 3000)
	for i := range nodes {
		n, err := h.Alloc(node, 0)
		if err != nil {
			t.Fatal(err)
		}
		h.SetWord(n, layout.FieldOff(0), uint64(i))
		h.SetWord(n, layout.FieldOff(1), uint64(head))
		head, nodes[i] = n, n
	}
	if err := h.SetRoot("chain", head); err != nil {
		t.Fatal(err)
	}
	ix, err := pindex.Open(h, pindex.NoPin{}, "map", pindex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := ix.NewCtx()
	for key := 0; key < 2000; key++ {
		if err := ctx.Put(int64(key), nodes[key]); err != nil {
			t.Fatal(err)
		}
	}
	ctx.Release()
	h.Device().FlushAll()
	img := h.Device().CrashImage(nvm.CrashFlushedOnly, 0)

	load := func(dev *nvm.Device, salvage bool) (*pheap.Heap, error) {
		if salvage {
			h, _, err := pheap.LoadSalvage(dev, klass.NewRegistry())
			return h, err
		}
		return pheap.Load(dev, klass.NewRegistry())
	}
	copyOf := func() *nvm.Device { return nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked}) }
	clean, err := load(copyOf(), false)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := readContent(clean)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(oracle.pmap, "\n") != 1999 || strings.Count(oracle.parse, "flip/Node") != 3000 || oracle.roots == "" {
		t.Fatalf("oracle is not the heap that was built: %d pairs, %d nodes, roots %q",
			strings.Count(oracle.pmap, "\n")+1, strings.Count(oracle.parse, "flip/Node"), oracle.roots)
	}

	// The same checks, with the panic of any stage reported as the failure.
	try := func(what string, off int, bit uint, fn func() error) (err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("word %d bit %d: %s panicked: %v", off&^7, bit+8*uint(off&7), what, r)
				err = fmt.Errorf("panic")
			}
		}()
		return fn()
	}
	shared := copyOf()
	refused, intact := 0, 0
	for off := 0; off < metadataBytes; off++ {
		for bit := uint(0); bit < 8; bit++ {
			// Scrub is read-only, and so is every loader up to the point it
			// refuses an unreadable image: those run on the one shared device
			// with the bit flipped in place. Whatever Scrub can read gets a
			// copy of its own per loader, which may repair and plug.
			shared.CorruptBit(off, bit)
			var rep *pheap.ScrubReport
			scrubErr := try("Scrub", off, bit, func() (err error) {
				rep, err = pheap.Scrub(shared)
				return err
			})
			timestamp := off&^7 == 32 || off&^7 == 40 // the checksum word, the timestamp
			if timestamp && (scrubErr != nil || !rep.Corrupt()) {
				t.Errorf("word %d bit %d: Scrub does not flag a flipped timestamp (err %v)", off&^7, bit+8*uint(off&7), scrubErr)
			}
			for _, salvage := range []bool{false, true} {
				what := map[bool]string{false: "Load", true: "LoadSalvage"}[salvage]
				dev := shared
				if scrubErr == nil {
					dev = copyOf()
					dev.CorruptBit(off, bit)
				}
				var h *pheap.Heap
				var got imageContent
				err := try(what, off, bit, func() (err error) {
					h, err = load(dev, salvage)
					return err
				})
				if timestamp && err == nil {
					t.Errorf("word %d bit %d: %s accepts a flipped timestamp", off&^7, bit+8*uint(off&7), what)
				}
				if err != nil && scrubErr == nil && !rep.Corrupt() {
					t.Errorf("word %d bit %d: %s refuses an image Scrub reports clean: %v", off&^7, bit+8*uint(off&7), what, err)
				}
				if err == nil {
					err = try(what+" content", off, bit, func() (err error) {
						got, err = readContent(h)
						return err
					})
				}
				switch {
				case err != nil:
					refused++
				case got != oracle:
					t.Errorf("word %d bit %d: %s accepted the image and serves different content (scrub: err %v, findings %v)",
						off&^7, bit+8*uint(off&7), what, scrubErr, rep)
				default:
					intact++
				}
				if scrubErr != nil && err == nil {
					t.Fatalf("word %d bit %d: %s loaded an image Scrub cannot read; the shared device may be changed", off&^7, bit+8*uint(off&7), what)
				}
			}
			shared.CorruptBit(off, bit)
		}
	}
	t.Logf("%d flips × 2 modes: %d refused, %d loaded with content intact", metadataBytes*8, refused, intact)
}
