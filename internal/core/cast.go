package core

import (
	"fmt"

	"espresso/internal/klass"
	"espresso/internal/layout"
)

// Alias-Klass type checking (paper §3.2, Figure 10). The constant pool
// caches one resolved Klass address per class symbol. Allocating the same
// class with `new` and then `pnew` leaves the slot pointing at the NVM
// Klass, so an address-equality checkcast against the DRAM instance
// throws a spurious ClassCastException. Espresso extends the check: two
// Klasses that are aliases — logically the same class in different
// places — compare equal.

// ClassCastError is the ClassCastException analog.
type ClassCastError struct {
	Have, Want string
}

func (e *ClassCastError) Error() string {
	return fmt.Sprintf("core: ClassCastException: %s cannot be cast to %s", e.Have, e.Want)
}

// klassByAddr resolves a Klass address from either the metaspace or any
// loaded heap's Klass segment.
func (rt *Runtime) klassByAddr(addr layout.Ref) (*klass.Klass, bool) {
	if klass.IsMetaAddr(addr) {
		return rt.Reg.ByMetaAddr(addr)
	}
	for _, h := range rt.heaps {
		if k, ok := h.KlassByAddr(addr); ok {
			return k, ok
		}
	}
	return nil, false
}

// CheckCast performs `(className) obj` against the constant pool's
// resolved slot for className. With StrictCast configured it reproduces
// the stock JVM's address-equality check and the Figure 10 exception;
// otherwise the alias-aware check accepts any incarnation of the class
// (or a subclass).
func (a *Accessor) CheckCast(obj layout.Ref, className string) error {
	defer a.exit(a.enter())
	if obj == layout.NullRef {
		return nil // casting null always succeeds
	}
	rt := a.rt
	objKlassAddr := layout.Ref(a.getWord(obj, layout.KlassWordOff))
	rt.mu.Lock()
	slotAddr, resolved := rt.cp.Get(className)
	if !resolved {
		// First use of the symbol: resolve it against the object's own
		// class, as the interpreter would on a cold constant-pool slot.
		rt.cp.Resolve(className, objKlassAddr)
		slotAddr = objKlassAddr
	}
	rt.mu.Unlock()
	if rt.cfg.StrictCast {
		if objKlassAddr == slotAddr {
			return nil
		}
		have, want := rt.klassName(objKlassAddr), rt.klassName(slotAddr)
		return &ClassCastError{Have: have, Want: want}
	}
	objK, ok := rt.klassByAddr(objKlassAddr)
	if !ok {
		return fmt.Errorf("core: object %#x has unresolvable klass", uint64(obj))
	}
	targetK, ok := rt.klassByAddr(slotAddr)
	if !ok {
		return fmt.Errorf("core: class symbol %q resolves to unknown klass", className)
	}
	if objK.IsSubclassOf(targetK) {
		return nil
	}
	return &ClassCastError{Have: objK.Name, Want: targetK.Name}
}

// InstanceOf reports whether obj is an instance of className (alias-aware).
func (a *Accessor) InstanceOf(obj layout.Ref, className string) (bool, error) {
	defer a.exit(a.enter())
	if obj == layout.NullRef {
		return false, nil
	}
	objK, err := a.klassOf(obj)
	if err != nil {
		return false, err
	}
	target, ok := a.rt.Reg.Lookup(className)
	if !ok {
		return false, fmt.Errorf("core: unknown class %q", className)
	}
	return objK.IsSubclassOf(target), nil
}

func (rt *Runtime) klassName(addr layout.Ref) string {
	if k, ok := rt.klassByAddr(addr); ok {
		return k.Name
	}
	return fmt.Sprintf("<klass@%#x>", uint64(addr))
}
