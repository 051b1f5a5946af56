package main

import (
	"fmt"

	"espresso"
)

// Shared by obj_graph and gc_churn: the persistent node class and the
// per-client directory of list heads both workloads hang their lists on.

const (
	graphHeapName = "graph"
	nodePayload   = 32 // bytes of user data per node: four 8-byte fields
)

// nodeClass is the 4-field node of both graph workloads.
var nodeClass = espresso.MustClass("bench/Node", nil,
	espresso.Long("val"),
	espresso.Long("aux"),
	espresso.RefTo("next", "bench/Node"),
	espresso.RefTo("peer", "bench/Node"),
)

// graphRootName names client c's directory: a persistent object array
// whose element j is the head of the client's list j.
func graphRootName(c int) string { return fmt.Sprintf("graph-c%d", c) }

// graphFields are the node's resolved field handles.
type graphFields struct {
	fVal, fAux, fNext espresso.FieldRef
}

func resolveGraph(rt *espresso.Runtime) graphFields {
	return graphFields{
		fVal:  rt.MustResolveField(nodeClass, "val"),
		fAux:  rt.MustResolveField(nodeClass, "aux"),
		fNext: rt.MustResolveField(nodeClass, "next"),
	}
}

// newGraphDir allocates client c's directory of n list heads and roots it.
func newGraphDir(rt *espresso.Runtime, c, n int) (espresso.Ref, error) {
	dir, err := rt.PNewArray("bench/Node", n)
	if err != nil {
		return 0, err
	}
	if err := rt.FlushObject(dir); err != nil {
		return 0, err
	}
	return dir, rt.SetRoot(graphRootName(c), dir)
}
