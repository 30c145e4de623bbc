package openmb

import (
	"reflect"
	"testing"

	"openmb/internal/core"
	"openmb/internal/mbox"
	"openmb/internal/mbox/ips"
	"openmb/internal/mbox/lb"
	"openmb/internal/mbox/mbtest"
	"openmb/internal/mbox/monitor"
	"openmb/internal/mbox/nat"
	"openmb/internal/packet"
)

// pointerFields returns the names of t's fields (t itself, as "", if it is
// not a struct) that hold something the collector must scan.
func pointerFields(t reflect.Type) []string {
	switch k := t.Kind(); {
	case k >= reflect.Bool && k <= reflect.Complex128:
		return nil
	case k == reflect.Array && (t.Len() == 0 || pointerFields(t.Elem()) == nil):
		return nil
	case k == reflect.Struct:
		var names []string
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); pointerFields(f.Type) != nil {
				names = append(names, f.Name)
			}
		}
		return names
	}
	return []string{""}
}

// TestTableKeysAreCompact pins what the move's memory rests on — the key
// types of the standing per-key tables, read off the tables themselves: the
// flow ID is at most 16 bytes, every middlebox's per-flow table (mbox.Table)
// is keyed by it in slots of at most 24 bytes, the runtime's mark sets are
// keyed by it in pointer-free slots of at most 16 bytes, and the controller
// router's tables on at most 24 bytes whose only pointer is the source
// connection.
func TestTableKeysAreCompact(t *testing.T) {
	// field follows a chain of struct fields, stepping through pointers,
	// slices and map values on the way.
	field := func(t reflect.Type, names ...string) reflect.Type {
		for _, name := range names {
			for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice || t.Kind() == reflect.Map {
				t = t.Elem()
			}
			f, ok := t.FieldByName(name)
			if !ok {
				panic(t.String() + " has no field " + name)
			}
			t = f.Type
		}
		return t
	}
	flowID := reflect.TypeOf(packet.FlowID{})
	if flowID.Size() > 16 || pointerFields(flowID) != nil || !flowID.Comparable() {
		t.Errorf("packet.FlowID: %d bytes, pointer fields %q", flowID.Size(), pointerFields(flowID))
	}
	// The record middleboxes store a pointer a flow, the counter a uint64:
	// either way a slot of the flat table is the key and one word.
	for _, nf := range []any{(*nat.NAT)(nil), (*lb.LB)(nil), (*monitor.Monitor)(nil), (*ips.IPS)(nil), (*mbtest.CounterLogic)(nil)} {
		slot := field(reflect.TypeOf(nf), "Table", "m", "slots").Elem()
		if key := field(slot, "id"); key != flowID {
			t.Errorf("%T: per-flow table slot %v is keyed by %v, not packet.FlowID", nf, slot, key)
		}
		if slot.Size() > 24 {
			t.Errorf("%T: per-flow table slot %v is %d bytes, want at most 24", nf, slot, slot.Size())
		}
	}
	mark := field(reflect.TypeOf((*mbox.Runtime)(nil)), "marks", "slots").Elem()
	if key := field(mark, "id"); key != flowID {
		t.Errorf("mark set slot %v is keyed by %v, not packet.FlowID", mark, key)
	}
	if mark.Size() > 16 || pointerFields(mark) != nil {
		t.Errorf("mark set slot %v: %d bytes, pointer fields %q; want at most 16, none", mark, mark.Size(), pointerFields(mark))
	}
	for _, table := range []string{"keys", "orphans"} {
		m := field(reflect.TypeOf((*core.Controller)(nil)), "router", "shards", table)
		rk := m.Key()
		if ptrs := pointerFields(rk); rk.Size() > 24 || !reflect.DeepEqual(ptrs, []string{"mb"}) || field(rk, "mb").Kind() != reflect.Pointer {
			t.Errorf("router table %v: key is %d bytes, pointer fields %q (want only the connection)", m, rk.Size(), ptrs)
		}
	}
}
