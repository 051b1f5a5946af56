// Package h2 is an embedded relational database in the role of the
// paper's H2 backend: slotted row pages stored on an NVM device, written
// back once per transaction — a commit flushes each line the transaction
// dirtied exactly once, behind a physical undo log of self-validating
// before-images that makes the transaction atomic, and a transaction that
// is one store inside one aligned word commits with that store alone
// (storage.go has the protocol) — a B+tree primary-key index per table (rebuilt at open, the
// way H2 recovers its indexes), a SQL execution engine fed by package
// sql, and a JDBC-like Conn/Stmt API.
//
// Two row-storage modes exist, matching the paper's two configurations:
//
//   - ModeRows ("H2-JPA"): the row's values are serialized into the
//     database's own pages — data arrives via SQL as statements, never as
//     objects (§2.1: "only SQL statements are conveyed to DBMSes").
//   - ModeRefs ("H2-PJO"): the row is a DBPersistable whose data fields
//     already live in the persistent Java heap; the database stores only
//     the object reference and its own transaction-control records
//     (§5: the ~600-LoC H2 modification).
package h2

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Kind tags a Value.
type Kind uint8

const (
	KNull Kind = iota
	KInt
	KStr
	KFloat
	KRef // persistent-object reference (ModeRefs payload)
)

// Value is one column value.
type Value struct {
	Kind Kind
	I    int64
	S    string
	F    float64
}

// IntV builds an integer value.
func IntV(v int64) Value { return Value{Kind: KInt, I: v} }

// StrV builds a string value.
func StrV(s string) Value { return Value{Kind: KStr, S: s} }

// FloatV builds a float value.
func FloatV(f float64) Value { return Value{Kind: KFloat, F: f} }

// RefV builds an object-reference value.
func RefV(r uint64) Value { return Value{Kind: KRef, I: int64(r)} }

// Null is the SQL NULL.
var Null = Value{Kind: KNull}

func (v Value) String() string {
	switch v.Kind {
	case KNull:
		return "NULL"
	case KInt:
		return fmt.Sprintf("%d", v.I)
	case KStr:
		return v.S
	case KFloat:
		return fmt.Sprintf("%g", v.F)
	case KRef:
		return fmt.Sprintf("ref:%#x", uint64(v.I))
	}
	return "?"
}

// Equal compares two values.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KNull:
		return true
	case KStr:
		return v.S == o.S
	case KFloat:
		return v.F == o.F
	default:
		return v.I == o.I
	}
}

// encodeRow serializes a row.
func encodeRow(vals []Value) []byte {
	n := 2
	for _, v := range vals {
		n += 1
		switch v.Kind {
		case KInt, KFloat, KRef:
			n += 8
		case KStr:
			n += 4 + len(v.S)
		}
	}
	buf := make([]byte, n)
	binary.LittleEndian.PutUint16(buf, uint16(len(vals)))
	p := 2
	for _, v := range vals {
		buf[p] = byte(v.Kind)
		p++
		switch v.Kind {
		case KInt, KRef:
			binary.LittleEndian.PutUint64(buf[p:], uint64(v.I))
			p += 8
		case KFloat:
			binary.LittleEndian.PutUint64(buf[p:], math.Float64bits(v.F))
			p += 8
		case KStr:
			binary.LittleEndian.PutUint32(buf[p:], uint32(len(v.S)))
			p += 4
			p += copy(buf[p:], v.S)
		}
	}
	return buf
}

// decodeRow parses a serialized row.
func decodeRow(b []byte) ([]Value, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("h2: truncated row")
	}
	n := int(binary.LittleEndian.Uint16(b))
	vals := make([]Value, 0, n)
	p := 2
	for i := 0; i < n; i++ {
		if p >= len(b) {
			return nil, fmt.Errorf("h2: truncated row value %d", i)
		}
		k := Kind(b[p])
		p++
		var v Value
		v.Kind = k
		switch k {
		case KNull:
		case KInt, KRef:
			if p+8 > len(b) {
				return nil, fmt.Errorf("h2: truncated int value")
			}
			v.I = int64(binary.LittleEndian.Uint64(b[p:]))
			p += 8
		case KFloat:
			if p+8 > len(b) {
				return nil, fmt.Errorf("h2: truncated float value")
			}
			v.F = math.Float64frombits(binary.LittleEndian.Uint64(b[p:]))
			p += 8
		case KStr:
			if p+4 > len(b) {
				return nil, fmt.Errorf("h2: truncated string header")
			}
			sl := int(binary.LittleEndian.Uint32(b[p:]))
			p += 4
			if p+sl > len(b) {
				return nil, fmt.Errorf("h2: truncated string value")
			}
			v.S = string(b[p : p+sl])
			p += sl
		default:
			return nil, fmt.Errorf("h2: unknown value kind %d", k)
		}
		vals = append(vals, v)
	}
	return vals, nil
}
