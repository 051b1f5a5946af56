package ptx_test

import (
	"testing"

	"espresso/internal/core"
	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/ptx"
)

// TestTxRefStoresReachTelemetry: a transaction's reference stores are
// reference stores — WriteRefWord and every reference slot Abort restores
// count in refstore.stores like a SetRef does — and counting them costs
// the device nothing: the same transactions issue the same device ops
// with telemetry off and on.
func TestTxRefStoresReachTelemetry(t *testing.T) {
	run := func(telemetry bool) (stores uint64, dev nvm.Stats) {
		rt, err := core.NewRuntime(core.Config{PJHDataSize: 8 << 20, Telemetry: telemetry})
		if err != nil {
			t.Fatal(err)
		}
		h, err := rt.CreateHeap("txtel", 0)
		if err != nil {
			t.Fatal(err)
		}
		holder := klass.MustInstance("tx/Wide", nil,
			klass.Field{Name: "a", Type: layout.FTRef},
			klass.Field{Name: "b", Type: layout.FTRef},
			klass.Field{Name: "c", Type: layout.FTRef},
			klass.Field{Name: "n", Type: layout.FTLong},
		)
		obj, err := rt.PNew(holder, 0)
		if err != nil {
			t.Fatal(err)
		}
		target, err := rt.NewString("target", true)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ptx.NewManager(h)
		if err != nil {
			t.Fatal(err)
		}
		stores0 := rt.Metrics().Counters["refstore.stores"]
		dev0 := h.Device().Stats()

		// Committed: r = 3 reference stores and one plain word.
		if err := m.Run(func(tx *ptx.Tx) error {
			for i := 0; i < 3; i++ {
				if err := tx.WriteRefWord(obj, layout.FieldOff(i), target); err != nil {
					return err
				}
			}
			return tx.WriteWord(obj, layout.FieldOff(3), 42)
		}); err != nil {
			t.Fatal(err)
		}
		// Aborted: r = 2 forward, and the same 2 slots restored.
		tx := m.Begin()
		for i := 0; i < 2; i++ {
			if err := tx.WriteRefWord(obj, layout.FieldOff(i), layout.NullRef); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.WriteWord(obj, layout.FieldOff(3), 43); err != nil {
			t.Fatal(err)
		}
		tx.Abort()
		return rt.Metrics().Counters["refstore.stores"] - stores0, h.Device().Stats().Sub(dev0)
	}
	_, devOff := run(false)
	stores, devOn := run(true)
	if want := uint64(3 + 2 + 2); stores != want {
		t.Fatalf("refstore.stores moved by %d, want %d (3 committed + 2 aborted + 2 restored)", stores, want)
	}
	if devOff != devOn {
		t.Fatalf("telemetry changed the transactions' device traffic:\n off %+v\n on  %+v", devOff, devOn)
	}
}
