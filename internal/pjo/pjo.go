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
//   - field-level tracking: the enhancer's dirty bitmap picks the columns
//     an update encodes into its DBPersistable's image, and the heap
//     persists only the span of the object those columns changed; the
//     backend's row names the same object before and after, so an update
//     stores nothing there;
//   - copy-on-write: once deduplicated, a field write goes to a volatile
//     shadow slot, protecting the persistent copy until the next commit.
package pjo

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

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

	// stage is the reusable DRAM buffer materialize assembles an update's
	// image in before shipping it with one bulk write; its second half keeps
	// the image as read.
	stage []byte
	// fresh holds the commit's fresh images, each staged by materialize in
	// a buffer of its own and all shipped by Commit in one PNewImage; ships
	// is the commit's list of entities to register, removals its deletes,
	// refs the fresh images' addresses. All are reused across commits.
	fresh    []core.NewImage
	ships    []shipment
	removals []*jpa.Entity
	refs     []layout.Ref

	// FieldTracking gates §5's field-level dirty tracking; default on. The
	// ablation test switches it off.
	FieldTracking bool
}

// shipment is one entity a commit registers with the backend, and its
// DBPersistable.
type shipment struct {
	e   *jpa.Entity
	ref layout.Ref
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
// Attaching registers the heap as named from elsewhere: H2's rows name
// its DBPersistables, and the persistent collector cannot trace them yet,
// so core.Runtime.PersistentGC refuses the heap rather than free them.
func (p *Provider) mutator() (*core.Mutator, error) {
	if p.m == nil {
		m, err := p.rt.NewMutator()
		if err != nil {
			return nil, err
		}
		p.rt.NameFromElsewhere(m.Heap())
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
//
// Every DBPersistable is durable before the backend transaction begins,
// so every reference the backend learns points at persisted data. Where
// each kind of operation takes effect:
//
//   - a create's images ship together, after the commit's updates, as
//     PNewImage's allocation runs (a few flushes and fences for the whole
//     commit); nothing names them until the backend's row does, so its
//     commit point is the backend's commit, and a crash keeps all of the
//     commit's fresh entities or none;
//   - an update rewrites its DBPersistable in place (WriteFieldImage), so
//     its commit point is that write's fence, ahead of the backend
//     transaction; the row still names the same object, so the backend
//     stores, flushes and fences nothing for it — an update is atomic per
//     entity, not with the rest of its commit, exactly as when the row
//     carried a dirty column nothing read;
//   - a delete's commit point is the backend's commit.
func (p *Provider) Commit() error {
	if !p.inTx {
		return fmt.Errorf("pjo: commit outside a transaction")
	}
	// Transformation (much smaller than JPA's): stage the fresh images,
	// write the updates, ship the fresh images.
	ships, removals := p.ships[:0], p.removals[:0]
	p.fresh = p.fresh[:0]
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
		ref, err := p.materialize(e)
		if err != nil {
			stopT()
			return err
		}
		ships = append(ships, shipment{e, ref})
	}
	p.ships, p.removals = ships, removals
	if n := len(p.fresh); n > 0 {
		p.refs = slices.Grow(p.refs[:0], n)[:n]
		if err := p.m.PNewImage(p.fresh, p.refs); err != nil {
			stopT()
			return err
		}
		refs := p.refs
		for i := range ships {
			if ships[i].ref == layout.NullRef {
				ships[i].ref, refs = refs[0], refs[1:]
			}
		}
	}
	stopT()

	// Database: one backend transaction covering the whole commit.
	stopD := p.phase("Database")
	tx := p.db.Begin()
	for _, s := range ships {
		if err := tx.PersistRef(s.e.Def.Table, s.e.ID(), uint64(s.ref)); err != nil {
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
	clear(ships)
	clear(removals)
	p.ctx = p.ctx[:0]
	p.inTx = false
	return nil
}

// materialize encodes the entity's fields into its DBPersistable's image
// through the bulk image encoder. A fresh entity's whole image is staged
// in a buffer of its own in p.fresh, with its string columns, for Commit
// to ship; materialize returns NullRef for it. An update encodes only the
// columns field-level tracking marked dirty (all of them with tracking
// off) over one bulk device read of the existing image, so clean columns,
// string references included, survive untouched; it lands through the
// mutator over the existing object (WriteFieldImage: bulk writes for the
// primitive runs, one barriered store per string column, and one
// FlushRange of the span the commit changed, found against the image as
// read), and materialize returns the object. Device cost per entity
// persist is O(1) regardless of how many fields are dirty (it depends only
// on the schema's column shape); an update's new string payloads add their
// own (bulk, one-write) allocations.
func (p *Provider) materialize(e *jpa.Entity) (layout.Ref, error) {
	m, err := p.mutator()
	if err != nil {
		return 0, err
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
	var img, old []byte
	var im *core.NewImage
	if fresh {
		if n := len(p.fresh); n < cap(p.fresh) {
			p.fresh = p.fresh[:n+1]
		} else {
			p.fresh = append(p.fresh, core.NewImage{})
		}
		im = &p.fresh[len(p.fresh)-1]
		img = slices.Grow(im.Img[:0], size)[:size]
		clear(img)
		*im = core.NewImage{K: s.k, Img: img, RefOffs: s.refOffs, Strs: im.Strs[:0]}
	} else {
		if cap(p.stage) < 2*size {
			p.stage = make([]byte, 2*size)
		}
		img, old = p.stage[:size], p.stage[size:2*size]
		if err := m.ReadFieldImage(ref, old); err != nil {
			return 0, err
		}
		copy(img, old)
	}
	base := layout.FieldOff(0)
	for i, f := range fields {
		if dirty&(1<<uint(i)) == 0 {
			continue
		}
		v := e.Value(i)
		var bits uint64
		switch f.Kind {
		case jpa.FStr:
			if v.Kind == h2.KStr && fresh {
				// Allocated with the entity, in the same run.
				im.Strs = append(im.Strs, core.ImageString{Boff: s.fields[i].Offset(), S: v.S})
			} else if v.Kind == h2.KStr {
				sref, err := m.NewString(v.S, true)
				if err != nil {
					return 0, err
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
	if fresh {
		return layout.NullRef, nil
	}
	return ref, m.WriteFieldImage(ref, old, img, s.refOffs)
}

var _ jpa.EntityManager = (*Provider)(nil)
var _ jpa.EntityManager = (*jpa.Provider)(nil)
