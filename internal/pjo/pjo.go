// Package pjo implements Persistent Java Objects (paper §5): the
// NVM-aware replacement for the JPA provider. It keeps the JPA interfaces
// and annotations — the same jpa.EntityManager contract — but at commit
// it materializes a DBPersistable whose data fields live in the
// persistent Java heap and ships the *object* to the backend database,
// removing the SQL transformation phase entirely (paper Figure 13).
//
// The advanced features of §5 are here too:
//
//   - data deduplication: after commit, the volatile entity's fields are
//     redirected to the persisted copy, so the DRAM values can be
//     reclaimed (Figure 14d);
//   - field-level tracking: the enhancer's dirty bitmap travels with the
//     DBPersistable so the backend updates only modified columns;
//   - copy-on-write: once deduplicated, a field write goes to a volatile
//     shadow slot, protecting the persistent copy until the next commit.
package pjo

import (
	"encoding/binary"
	"fmt"
	"math"

	"espresso/internal/bench"
	"espresso/internal/core"
	"espresso/internal/h2"
	"espresso/internal/jpa"
	"espresso/internal/klass"
	"espresso/internal/layout"
)

// Provider is the PJO provider (the modified DataNucleus of the paper).
// Like jpa.Provider it serves one goroutine at a time.
type Provider struct {
	rt *core.Runtime
	// m is the provider's mutator, attached to the runtime's active heap at
	// first use: DBPersistables, their strings, image reads and writes all
	// go through its own PLAB and device view.
	m    *core.Mutator
	db   *h2.DB
	prof bench.Profiler
	ctx  []*jpa.Entity
	inTx bool

	// klasses caches, per entity class, the DBPersistable klass plus the
	// FieldRef handle of every column, resolved once at schema time — the
	// JIT-compiled-accessor analog. Commit and read-through go through
	// these handles instead of re-resolving field names per access.
	klasses map[*jpa.EntityDef]*dbSchema

	// stage is the reusable DRAM staging buffer materialize assembles
	// DBPersistable images in before shipping them with one bulk write; its
	// second half keeps an update's image as read.
	stage []byte
	// strs is materialize's reusable list of a fresh entity's string
	// columns.
	strs []core.ImageString

	// FieldTracking gates §5's field-level dirty tracking; default on. The
	// ablation test switches it off.
	FieldTracking bool
}

// dbSchema is the resolved persistence schema of one entity class.
type dbSchema struct {
	k      *klass.Klass
	fields []core.FieldRef // one resolved handle per flattened column
	// refOffs lists the object-relative byte offsets of the
	// reference-typed (string) columns — the slots WriteFieldImage runs
	// the write barrier for when a whole image ships in one device write.
	refOffs []int
}

// NewProvider wires a PJO provider to a runtime (whose active heap holds
// the DBPersistable objects) and a backend database.
func NewProvider(rt *core.Runtime, db *h2.DB) *Provider {
	return &Provider{rt: rt, db: db, klasses: map[*jpa.EntityDef]*dbSchema{},
		FieldTracking: true}
}

// mutator returns the provider's mutator, attaching it on first use.
func (p *Provider) mutator() (*core.Mutator, error) {
	if p.m == nil {
		m, err := p.rt.NewMutator()
		if err != nil {
			return nil, err
		}
		p.m = m
	}
	return p.m, nil
}

// SetProfile installs a phase recorder ("Transformation"/"Database");
// nil removes it. PJO's transformation phase exists but is small:
// building the DBPersistable is a few word stores, not SQL text.
func (p *Provider) SetProfile(prof bench.Profiler) { p.prof = prof }

func (p *Provider) phase(name string) func() { return bench.Start(p.prof, name) }

// EnsureSchema creates the ModeRefs table and the DBPersistable klass for
// an entity class.
func (p *Provider) EnsureSchema(def *jpa.EntityDef) error {
	if _, ok := p.klasses[def]; ok {
		return nil
	}
	if _, ok := p.db.TableByName(def.Table); !ok {
		if _, err := p.db.CreateRefTable(def.Table); err != nil {
			return err
		}
	}
	fields := make([]klass.Field, 0, len(def.AllFields()))
	for _, f := range def.AllFields() {
		switch f.Kind {
		case jpa.FStr:
			fields = append(fields, klass.Field{Name: f.Name, Type: layout.FTRef, RefKlass: core.StringKlassName})
		default:
			fields = append(fields, klass.Field{Name: f.Name, Type: layout.FTLong})
		}
	}
	k, err := p.rt.Reg.Define(klass.MustInstance("db/"+def.Name, nil, fields...))
	if err != nil {
		return err
	}
	s := &dbSchema{k: k, fields: make([]core.FieldRef, len(def.AllFields()))}
	for i, f := range def.AllFields() {
		if s.fields[i], err = p.rt.ResolveField(k, f.Name); err != nil {
			return err
		}
		if f.Kind == jpa.FStr {
			s.refOffs = append(s.refOffs, s.fields[i].Offset())
		}
	}
	p.klasses[def] = s
	return nil
}

// Begin opens a transaction.
func (p *Provider) Begin() {
	p.ctx = p.ctx[:0]
	p.inTx = true
}

// Persist adds an entity to the persistence context.
func (p *Provider) Persist(e *jpa.Entity) error {
	if !p.inTx {
		return fmt.Errorf("pjo: persist outside a transaction")
	}
	e.SM.State = jpa.StateManaged
	p.ctx = append(p.ctx, e)
	return nil
}

// Remove marks an entity for deletion at commit.
func (p *Provider) Remove(e *jpa.Entity) error {
	if !p.inTx {
		return fmt.Errorf("pjo: remove outside a transaction")
	}
	e.SM.State = jpa.StateRemoved
	p.ctx = append(p.ctx, e)
	return nil
}

// Find loads an entity: the index lookup yields the DBPersistable
// reference, and the entity reads *through* it — no row decoding, no
// copies (retrieval is where Figure 16 shows the largest wins).
func (p *Provider) Find(def *jpa.EntityDef, id int64) (*jpa.Entity, error) {
	if err := p.EnsureSchema(def); err != nil {
		return nil, err
	}
	stopD := p.phase("Database")
	ref, ok, err := p.db.GetRef(def.Table, id)
	stopD()
	if err != nil || !ok {
		return nil, err
	}
	m, err := p.mutator()
	if err != nil {
		return nil, err
	}
	e := def.NewEntity(id)
	e.SM = jpa.StateManager{State: jpa.StateManaged, PJORef: ref}
	attachReadThrough(m, e, p.klasses[def].fields, layout.Ref(ref))
	return e, nil
}

// attachReadThrough points the entity's field reads at the persistent
// copy (the dedup arrangement of Figure 14d). Reads go through the
// resolved FieldRef handles: one device word op per field, plus one bulk
// read for string payloads.
func attachReadThrough(m *core.Mutator, e *jpa.Entity, frefs []core.FieldRef, ref layout.Ref) {
	fields := e.Def.AllFields()
	e.SM.ReadThrough = func(i int) h2.Value {
		switch fields[i].Kind {
		case jpa.FStr:
			sref := m.GetRefFast(ref, frefs[i])
			if sref == layout.NullRef {
				return h2.Null
			}
			s, err := m.GetString(sref)
			if err != nil {
				return h2.Null
			}
			return h2.StrV(s)
		case jpa.FFloat:
			return h2.FloatV(math.Float64frombits(uint64(m.GetLongFast(ref, frefs[i]))))
		default:
			return h2.IntV(m.GetLongFast(ref, frefs[i]))
		}
	}
}

// Commit ships each dirty entity's data to NVM as a DBPersistable and
// registers it with the backend — index plus transaction control only,
// no SQL (Figure 13's persistInTable path).
func (p *Provider) Commit() error {
	if !p.inTx {
		return fmt.Errorf("pjo: commit outside a transaction")
	}
	// Transformation (much smaller than JPA's): allocate/refresh the
	// DBPersistable copies.
	type shipment struct {
		e     *jpa.Entity
		ref   layout.Ref
		dirty uint64
	}
	var ships []shipment
	var removals []*jpa.Entity
	stopT := p.phase("Transformation")
	for _, e := range p.ctx {
		if e.SM.State == jpa.StateRemoved {
			removals = append(removals, e)
			continue
		}
		if e.SM.Dirty == 0 && e.SM.PJORef != 0 {
			continue
		}
		if err := p.EnsureSchema(e.Def); err != nil {
			stopT()
			return err
		}
		ref, dirty, err := p.materialize(e)
		if err != nil {
			stopT()
			return err
		}
		ships = append(ships, shipment{e, ref, dirty})
	}
	// Each shipment is already durable: materialize persists the image as
	// it ships it (string payloads persist eagerly in NewString), so every
	// reference the backend is about to learn points at persisted data —
	// no second flush pass over the shipment.
	stopT()

	// Database: one backend transaction covering the whole commit.
	stopD := p.phase("Database")
	tx := p.db.Begin()
	for _, s := range ships {
		if err := tx.PersistRef(s.e.Def.Table, s.e.ID(), uint64(s.ref), s.dirty); err != nil {
			tx.Rollback()
			stopD()
			return err
		}
	}
	for _, e := range removals {
		if _, err := tx.DeleteRef(e.Def.Table, e.ID()); err != nil {
			tx.Rollback()
			stopD()
			return err
		}
	}
	tx.Commit()
	stopD()

	// Post-commit bookkeeping: dedup redirects the entity at the
	// persisted copy and drops shadows.
	for _, s := range ships {
		s.e.SM.PJORef = uint64(s.ref)
		s.e.SM.Dirty = 0
		s.e.SM.New = false
		s.e.SM.Shadow = nil
		attachReadThrough(p.m, s.e, p.klasses[s.e.Def].fields, s.ref)
	}
	p.ctx = p.ctx[:0]
	p.inTx = false
	return nil
}

// materialize ships the entity's fields to its DBPersistable through the
// bulk image encoder: the whole field area is assembled in a reusable
// DRAM staging buffer — for updates, seeded by one bulk device read of
// the existing image, so clean columns (including string references)
// survive untouched — and lands through the mutator: bulk writes for the
// primitive runs, one barriered atomic store per string column. An update
// goes over the existing object (WriteFieldImage, one FlushRange of the
// span the commit changed, found against the image as read); a
// fresh entity's image ships inside its allocation (PNewImage), together
// with its string columns' payloads: one allocation run whose one flush
// covers the strings and the entity's header and fields. Device cost per
// entity persist is O(1) regardless of how many fields are dirty (it
// depends only on the schema's column shape); an update's new string
// payloads add their own (bulk, one-write) allocations.
func (p *Provider) materialize(e *jpa.Entity) (layout.Ref, uint64, error) {
	m, err := p.mutator()
	if err != nil {
		return 0, 0, err
	}
	s := p.klasses[e.Def]
	fields := e.Def.AllFields()
	ref := layout.Ref(e.SM.PJORef)
	fresh := ref == layout.NullRef
	dirty := e.SM.Dirty
	if fresh || !p.FieldTracking {
		dirty = ^uint64(0) >> (64 - uint(len(fields))) // all fields
	}
	size := len(fields) * layout.WordSize
	if cap(p.stage) < 2*size {
		p.stage = make([]byte, 2*size)
	}
	img, old := p.stage[:size], p.stage[size:2*size]
	if fresh {
		clear(img)
	} else {
		if err := m.ReadFieldImage(ref, old); err != nil {
			return 0, 0, err
		}
		copy(img, old)
	}
	base := layout.FieldOff(0)
	strs := p.strs[:0]
	for i, f := range fields {
		if dirty&(1<<uint(i)) == 0 {
			continue
		}
		v := e.Value(i)
		var bits uint64
		switch f.Kind {
		case jpa.FStr:
			if v.Kind == h2.KStr && fresh {
				// Allocated with the entity: one run, one flush, one fence.
				strs = append(strs, core.ImageString{Boff: s.fields[i].Offset(), S: v.S})
			} else if v.Kind == h2.KStr {
				sref, err := m.NewString(v.S, true)
				if err != nil {
					return 0, 0, err
				}
				bits = uint64(sref)
			}
		case jpa.FFloat:
			bits = math.Float64bits(v.F)
			if v.Kind == h2.KInt {
				bits = uint64(v.I)
			}
		default:
			bits = uint64(v.I)
		}
		binary.LittleEndian.PutUint64(img[s.fields[i].Offset()-base:], bits)
	}
	p.strs = strs
	if fresh {
		ref, err = m.PNewImage(s.k, img, s.refOffs, strs...)
	} else {
		err = m.WriteFieldImage(ref, old, img, s.refOffs)
	}
	if err != nil {
		return 0, 0, err
	}
	return ref, dirty, nil
}

var _ jpa.EntityManager = (*Provider)(nil)
var _ jpa.EntityManager = (*jpa.Provider)(nil)
