package experiments

import (
	"fmt"
	"strings"

	"espresso/internal/core"
	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
)

// The fast-path experiment measures the resolved-accessor layer in
// accounted device traffic (BenchmarkFieldAccess, BenchmarkStringRoundTrip
// and BenchmarkFlushTransitive in the root package time the same
// operations). It is the source of BENCH_fastpath.json, which the
// contract test holds exactly.

// FastpathRow is one operation's cost, per op.
type FastpathRow struct {
	Op           string  `json:"op"`
	DevReads     float64 `json:"dev_reads_per_op"`
	DevWrites    float64 `json:"dev_writes_per_op"`
	FlushedLines float64 `json:"flushed_lines_per_op"`
	Fences       float64 `json:"fences_per_op"`
}

// perOp is the row of an operation that cost the device d over iters runs.
func perOp(op string, iters int, d nvm.Stats) FastpathRow {
	n := float64(iters)
	return FastpathRow{Op: op, DevReads: float64(d.Reads) / n, DevWrites: float64(d.Writes) / n,
		FlushedLines: float64(d.FlushedLines) / n, Fences: float64(d.Fences) / n}
}

// Fastpath measures named vs resolved field access, persistent-string
// round trips, and per-object vs coalesced transitive flushes.
func Fastpath(scale Scale) ([]FastpathRow, error) {
	rt, err := core.NewRuntime(core.Config{PJHDataSize: 64 << 20})
	if err != nil {
		return nil, err
	}
	h, err := rt.CreateHeap("fastpath", 0)
	if err != nil {
		return nil, err
	}
	dev := h.Device()
	n := scale.div(1000000)

	person := klass.MustInstance("fastpath/Person", nil,
		klass.Field{Name: "id", Type: layout.FTLong},
		klass.Field{Name: "name", Type: layout.FTRef, RefKlass: core.StringKlassName},
	)
	p, err := rt.PNew(person, 0)
	if err != nil {
		return nil, err
	}
	idF, err := rt.ResolveField(person, "id")
	if err != nil {
		return nil, err
	}

	var rows []FastpathRow
	record := func(op string, iters int, d nvm.Stats) { rows = append(rows, perOp(op, iters, d)) }
	measure := func(op string, iters int, fn func() error) error {
		s0 := dev.Stats()
		if err := fn(); err != nil {
			return fmt.Errorf("fastpath %s: %w", op, err)
		}
		record(op, iters, dev.Stats().Sub(s0))
		return nil
	}

	if err := measure("named-get", n, func() error {
		for i := 0; i < n; i++ {
			if _, err := rt.GetLong(p, "id"); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := measure("resolved-get", n, func() error {
		for i := 0; i < n; i++ {
			rt.GetLongFast(p, idF)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := measure("named-set", n, func() error {
		for i := 0; i < n; i++ {
			if err := rt.SetLong(p, "id", int64(i)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := measure("resolved-set", n, func() error {
		for i := 0; i < n; i++ {
			rt.SetLongFast(p, idF, int64(i))
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Strings: one round trip per iteration, measured in chunks with the
	// dead-string GC between them — outside the device-stat window, so
	// the per-op numbers are scale-independent and comparable against the
	// committed baseline.
	payload := strings.Repeat("s", 256)
	strN := n / 10
	if strN < 1 {
		strN = 1
	}
	{
		var traffic nvm.Stats
		const chunk = 10000
		for done := 0; done < strN; {
			step := chunk
			if step > strN-done {
				step = strN - done
			}
			s0 := dev.Stats()
			for i := 0; i < step; i++ {
				ref, err := rt.NewString(payload, true)
				if err != nil {
					return nil, fmt.Errorf("fastpath string-roundtrip: %w", err)
				}
				if _, err := rt.GetString(ref); err != nil {
					return nil, fmt.Errorf("fastpath string-roundtrip: %w", err)
				}
			}
			traffic = traffic.Add(dev.Stats().Sub(s0))
			done += step
			if done < strN {
				if _, err := rt.PersistentGC("fastpath"); err != nil {
					return nil, fmt.Errorf("fastpath string-roundtrip gc: %w", err)
				}
			}
		}
		record("string-roundtrip", strN, traffic)
	}

	// Transitive flush over a 64-node chain.
	node := klass.MustInstance("fastpath/Node", nil,
		klass.Field{Name: "next", Type: layout.FTRef, RefKlass: "fastpath/Node"},
		klass.Field{Name: "v", Type: layout.FTLong},
	)
	const graph = 64
	var head layout.Ref
	chain := make([]layout.Ref, graph)
	for i := 0; i < graph; i++ {
		r, err := rt.PNew(node, 0)
		if err != nil {
			return nil, err
		}
		if err := rt.SetRef(r, "next", head); err != nil {
			return nil, err
		}
		chain[i] = r
		head = r
	}
	flushN := n / 100
	if flushN < 1 {
		flushN = 1
	}
	if err := measure("flush-per-object", flushN, func() error {
		for i := 0; i < flushN; i++ {
			for _, r := range chain {
				if err := rt.FlushObject(r); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := measure("flush-transitive", flushN, func() error {
		for i := 0; i < flushN; i++ {
			if err := rt.FlushTransitive(head); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	d, err := pnewFlushPublish(pnewFlushPublishIters)
	if err != nil {
		return nil, fmt.Errorf("fastpath pnew-flush-publish: %w", err)
	}
	record("pnew-flush-publish", pnewFlushPublishIters, d)
	return rows, nil
}

// pnewFlushPublishIters creates fit one PLAB (48 bytes each), so the row
// holds no retire or dispense, and are a multiple of four, the period at
// which 48-byte nodes cross cache lines (1.5 lines a node on average).
const pnewFlushPublishIters = 4096

// pnewFlushPublish is obj_graph's create (benchmark/obj_graph.go), on a
// runtime of its own: a mutator PNews a 4-field node, stores two longs and
// the reference that links it to the chain, the runtime flushes it
// (FlushObject), the mutator publishes it in a directory slot (SetElem)
// and the runtime flushes the slot (FlushArrayElem). The node's header is
// deferred by PNew and settled by FlushObject, whose lines cover it, so a
// create costs the node's lines and the slot's line under two fences.
func pnewFlushPublish(iters int) (nvm.Stats, error) {
	const slots = 64
	rt, err := core.NewRuntime(core.Config{PJHDataSize: 4 << 20})
	if err != nil {
		return nvm.Stats{}, err
	}
	h, err := rt.CreateHeap("fastpath-graph", 0)
	if err != nil {
		return nvm.Stats{}, err
	}
	node := klass.MustInstance("fastpath/GraphNode", nil,
		klass.Field{Name: "val", Type: layout.FTLong},
		klass.Field{Name: "aux", Type: layout.FTLong},
		klass.Field{Name: "next", Type: layout.FTRef, RefKlass: "fastpath/GraphNode"},
		klass.Field{Name: "peer", Type: layout.FTRef, RefKlass: "fastpath/GraphNode"},
	)
	if _, err := rt.Reg.Define(node); err != nil {
		return nvm.Stats{}, err
	}
	var fields [3]core.FieldRef
	for i, name := range []string{"val", "aux", "next"} {
		if fields[i], err = rt.ResolveField(node, name); err != nil {
			return nvm.Stats{}, err
		}
	}
	dir, err := rt.PNew(rt.Reg.ObjArray(node.Name), slots)
	if err != nil {
		return nvm.Stats{}, err
	}
	if err := rt.SetRoot("fastpath/graph", dir); err != nil {
		return nvm.Stats{}, err
	}
	m, err := rt.NewMutator()
	if err != nil {
		return nvm.Stats{}, err
	}
	defer m.Release()
	// The chain starts with the PLAB's first object, outside the window.
	prev, err := m.PNew(node, 0)
	if err != nil {
		return nvm.Stats{}, err
	}
	dev := h.Device()
	s0 := dev.Stats()
	for i := 0; i < iters; i++ {
		n, err := m.PNew(node, 0)
		if err != nil {
			return nvm.Stats{}, err
		}
		m.SetLongFast(n, fields[0], int64(i))
		m.SetLongFast(n, fields[1], -int64(i))
		if err := m.SetRefFast(n, fields[2], prev); err != nil {
			return nvm.Stats{}, err
		}
		if err := rt.FlushObject(n); err != nil {
			return nvm.Stats{}, err
		}
		if err := m.SetElem(dir, i%slots, n); err != nil {
			return nvm.Stats{}, err
		}
		if err := rt.FlushArrayElem(dir, i%slots); err != nil {
			return nvm.Stats{}, err
		}
		prev = n
	}
	return dev.Stats().Sub(s0), nil
}
