package h2

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"espresso/internal/nvm"
)

// TestOpenRefusesForeignAndCorruptImages: Open refuses, with an error and
// without writing to the device, what is not a database it can read — a
// page header or slot entry reaching outside its page, a foreign image, a
// device with no room for a page — where it used to panic on the first
// and accept the last.
func TestOpenRefusesForeignAndCorruptImages(t *testing.T) {
	db, err := Open(smallDevice(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE t (id BIGINT PRIMARY KEY, v VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		if _, err := db.Exec("INSERT INTO t (id, v) VALUES (?, 'a row of text')", IntV(i)); err != nil {
			t.Fatal(err)
		}
	}
	flushed := db.Device().CrashImage(nvm.CrashFlushedOnly, 0)
	if _, err := Open(nvm.FromImage(slices.Clone(flushed), nvm.Config{})); err != nil {
		t.Fatalf("the unpatched image: %v", err)
	}
	patched := func(off int, u16s ...uint16) []byte {
		img := slices.Clone(flushed)
		for i, v := range u16s {
			binary.LittleEndian.PutUint16(img[off+2*i:], v)
		}
		return img
	}
	foreign := make([]byte, 4<<20)
	rand.New(rand.NewSource(1)).Read(foreign)

	for _, c := range []struct {
		name string
		img  []byte
	}{
		// The header doubles as the directory's slot 2047: (0xFFFF, +0xFFFF).
		{"last page claims 0xFFFF slots", patched(pagesOff+3*pageSize, 0xFFFF, 0xFFFF)},
		{"slot entry reaches past its page", patched(pagesOff+pageSize-slotDirSize+2, 0xFFFF)},
		{"foreign 4 MB image", foreign},
		{"no room for a page", make([]byte, 64<<10)},
	} {
		dev := nvm.FromImage(slices.Clone(c.img), nvm.Config{Mode: nvm.Tracked})
		if _, err := Open(dev); err == nil {
			t.Errorf("%s: Open accepted it", c.name)
		}
		if s := dev.Stats(); s.Writes != 0 || s.Flushes != 0 {
			t.Errorf("%s: Open wrote to the device it refused: %+v", c.name, s)
		}
	}
	if _, err := New(64<<10, nvm.Tracked); err == nil {
		t.Error("New made a database on a device with no room for a page")
	}
}
