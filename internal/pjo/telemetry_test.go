package pjo

import (
	"testing"

	"espresso/internal/core"
	"espresso/internal/h2"
	"espresso/internal/jpa"
	"espresso/internal/nvm"
)

// TestPersistRefColumnsReachTelemetry: the reference slots of an entity
// image are reference stores — one persist of an entity with k string
// columns moves refstore.stores by exactly k — and counting them costs
// the device nothing: the same persist issues the same device ops with
// telemetry off and on.
func TestPersistRefColumnsReachTelemetry(t *testing.T) {
	const k = 3
	def := jpa.MustEntityDef("TelPerson", nil,
		jpa.FieldDef{Name: "first", Kind: jpa.FStr},
		jpa.FieldDef{Name: "age", Kind: jpa.FInt},
		jpa.FieldDef{Name: "last", Kind: jpa.FStr},
		jpa.FieldDef{Name: "email", Kind: jpa.FStr},
	)
	run := func(telemetry bool) (stores uint64, dev nvm.Stats) {
		db, err := h2.New(8<<20, nvm.Direct)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := core.NewRuntime(core.Config{PJHDataSize: 8 << 20, Telemetry: telemetry})
		if err != nil {
			t.Fatal(err)
		}
		h, err := rt.CreateHeap("pjotel", 0)
		if err != nil {
			t.Fatal(err)
		}
		p := NewProvider(rt, db)
		if err := p.EnsureSchema(def); err != nil {
			t.Fatal(err)
		}
		e := def.NewEntity(1)
		p.Begin()
		e.SetStr("first", "Mingyu")
		e.SetInt("age", 30)
		e.SetStr("last", "Wu")
		e.SetStr("email", "mw@sjtu.edu.cn")
		if err := p.Persist(e); err != nil {
			t.Fatal(err)
		}
		stores0 := rt.Metrics().Counters["refstore.stores"]
		dev0 := h.Device().Stats()
		if err := p.Commit(); err != nil {
			t.Fatal(err)
		}
		return rt.Metrics().Counters["refstore.stores"] - stores0, h.Device().Stats().Sub(dev0)
	}
	_, devOff := run(false)
	stores, devOn := run(true)
	if stores != k {
		t.Fatalf("refstore.stores moved by %d for a persist with %d reference columns", stores, k)
	}
	if devOff != devOn {
		t.Fatalf("telemetry changed the persist's device traffic:\n off %+v\n on  %+v", devOff, devOn)
	}
}
