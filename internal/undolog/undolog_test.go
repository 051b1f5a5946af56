package undolog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"espresso/internal/nvm"
	"espresso/internal/nvm/faultdev"
)

// A test device: the seq word at 0 (records from its line's end to 1 KB),
// and a 1 KB target window behind them.
const (
	logEnd = 1 << 10
	winEnd = 2 << 10
)

func open(dev *nvm.Device) *Log { return Open(dev, 0, logEnd, logEnd, winEnd, dev.Move) }

func fill(dev *nvm.Device, r nvm.Range, b byte) {
	dev.WriteBytes(r.Off, bytes.Repeat([]byte{b}, r.N))
}

// TestCrashSweepOverlappingRanges: two logged ranges that overlap without
// either containing the other — the second before-image holds bytes the
// transaction had already overwritten — roll back to the original bytes,
// because images go back in reverse order. Crashed after every flush,
// under every policy, the window recovers whole: as it was before, or,
// once Commit's seq flush is out, as the transaction left it.
func TestCrashSweepOverlappingRanges(t *testing.T) {
	first, second := nvm.Range{Off: logEnd + 40, N: 64}, nvm.Range{Off: logEnd + 72, N: 64}
	for _, abort := range []bool{false, true} {
		for k := uint64(1); ; k++ {
			dev := nvm.New(nvm.Config{Size: winEnd, Mode: nvm.Tracked})
			l := open(dev)
			fill(dev, nvm.Range{Off: logEnd, N: winEnd - logEnd}, 0x11)
			dev.FlushAll()
			pre := bytes.Clone(dev.View(logEnd, winEnd-logEnd))
			var post []byte
			faultdev.CrashIn(dev, k)
			crashed, err := faultdev.Run(dev, func() error {
				for i, r := range []nvm.Range{first, second} {
					if err := l.Record(r); err != nil {
						return err
					}
					fill(dev, r, byte(0x22+i))
					l.Touched(r)
				}
				if abort {
					l.Rollback()
				} else {
					post = bytes.Clone(dev.View(logEnd, winEnd-logEnd))
					l.Commit()
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, policy := range []nvm.CrashPolicy{nvm.CrashFlushedOnly, nvm.CrashAllDirty, nvm.CrashRandomEviction} {
				re := nvm.FromImage(dev.CrashImage(policy, int64(k)), nvm.Config{})
				open(re)
				got := re.View(logEnd, winEnd-logEnd)
				asBefore := bytes.Equal(got, pre) && (crashed || abort)
				asLeft := post != nil && bytes.Equal(got, post)
				if !asBefore && !asLeft {
					t.Fatalf("abort=%v, after flush %d, policy %d: the window recovered torn", abort, k, policy)
				}
			}
			if !crashed {
				break
			}
		}
	}
}

// TestRecordRejectsWhole: a batch with one range the log cannot take — out
// of the window, inside the log, or past its capacity — logs nothing, and
// the transaction carries on as if the batch had not been tried.
func TestRecordRejectsWhole(t *testing.T) {
	dev := nvm.New(nvm.Config{Size: winEnd})
	l := open(dev)
	ok := nvm.Range{Off: logEnd, N: 8}
	for _, c := range []struct {
		bad  nvm.Range
		want error
	}{
		{nvm.Range{Off: winEnd - 4, N: 8}, ErrRange},
		{nvm.Range{Off: 128, N: 8}, ErrRange},
		{nvm.Range{Off: logEnd + 8, N: -8}, ErrRange},
		{nvm.Range{Off: logEnd + 8, N: logEnd - 64}, ErrFull},
	} {
		s0 := dev.Stats()
		if err := l.Record(ok, c.bad); !errors.Is(err, c.want) {
			t.Fatalf("Record(ok, %+v) = %v, want %v", c.bad, err, c.want)
		}
		if d := dev.Stats().Sub(s0); d.Writes+d.Flushes+d.Fences != 0 {
			t.Fatalf("a rejected batch cost the device %+v", d)
		}
	}
	if err := l.Record(ok); err != nil {
		t.Fatal(err)
	}
	fill(dev, ok, 0xff)
	if !l.Rollback() || dev.ReadU64(logEnd) != 0 {
		t.Fatalf("the range of the rejected batches was not logged afresh: it reads %#x after rollback", dev.ReadU64(logEnd))
	}
}

// TestRecordSkipsAsTheLinearRuleDoes holds Record's containment lookup to
// the rule it replaced — a range is skipped when it lies inside one range
// logged before it, found by a scan of every record — on batches built
// from nested, equal, adjacent and overlapping ranges, with a rejected
// batch now and then. After every batch the log image must be byte for
// byte what the linear rule logs, and the batch must cost what it did:
// nothing, or one flush of its records and one fence.
func TestRecordSkipsAsTheLinearRuleDoes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dev := nvm.New(nvm.Config{Size: winEnd})
	l := open(dev)
	fill(dev, nvm.Range{Off: logEnd, N: winEnd - logEnd}, 0x5a)
	for i := logEnd; i < winEnd; i += 8 {
		dev.WriteU64(i, uint64(i)*0x9e3779b97f4a7c15)
	}
	pick := func(logged []rec) nvm.Range {
		if len(logged) == 0 || rng.Intn(5) == 0 {
			return nvm.Range{Off: logEnd + rng.Intn(winEnd-logEnd-32), N: 1 + rng.Intn(24)}
		}
		p := logged[rng.Intn(len(logged))]
		switch rng.Intn(5) {
		case 0: // equal
			return nvm.Range{Off: p.off, N: p.n}
		case 1: // nested
			lo := p.off + rng.Intn(p.n)
			return nvm.Range{Off: lo, N: 1 + rng.Intn(p.off+p.n-lo)}
		case 2: // adjacent behind
			if p.off+p.n < winEnd {
				return nvm.Range{Off: p.off + p.n, N: 1 + rng.Intn(min(16, winEnd-p.off-p.n))}
			}
			fallthrough
		case 3: // adjacent in front
			if p.off == logEnd {
				return nvm.Range{Off: p.off, N: p.n}
			}
			n := 1 + rng.Intn(min(16, p.off-logEnd))
			return nvm.Range{Off: p.off - n, N: n}
		default: // containing
			lo, hi := max(logEnd, p.off-rng.Intn(8)), min(winEnd, p.off+p.n+rng.Intn(8))
			return nvm.Range{Off: lo, N: hi - lo}
		}
	}
	skipped := 0
	for tx := 0; tx < 200; tx++ {
		var logged []rec // what the linear rule has logged in this transaction
		used := 0
		for batch := 0; used < 600; batch++ {
			rs := make([]nvm.Range, 1+rng.Intn(4))
			for i := range rs {
				rs[i] = pick(logged)
			}
			reject := rng.Intn(10) == 0
			if reject {
				rs[rng.Intn(len(rs))] = nvm.Range{Off: winEnd - 4, N: 8}
			}
			var want []rec
			at := l.dataOff + used
			for _, r := range rs {
				if slices.ContainsFunc(append(logged, want...), func(c rec) bool { return c.off <= r.Off && r.Off+r.N <= c.off+c.n }) {
					skipped++
					continue
				}
				want = append(want, rec{at, r.Off, r.N})
				at += recHdrBytes + padded(r.N)
			}
			s0 := dev.Stats()
			err := l.Record(rs...)
			d := dev.Stats().Sub(s0)
			if reject {
				if !errors.Is(err, ErrRange) || d.Writes+d.Flushes+d.Fences != 0 {
					t.Fatalf("tx %d batch %d: a rejected batch returned %v and cost %+v", tx, batch, err, d)
				}
				continue
			}
			if err != nil {
				t.Fatalf("tx %d batch %d: %v", tx, batch, err)
			}
			n := at - (l.dataOff + used)
			if wantFences := min(1, len(want)); d.Fences != uint64(wantFences) || d.FlushedLines != uint64(nvm.LineSpan(l.dataOff+used, n)*wantFences) {
				t.Fatalf("tx %d batch %d: %d lines / %d fences for %d records", tx, batch, d.FlushedLines, d.Fences, len(want))
			}
			img := make([]byte, 0, n)
			for _, w := range want {
				b := make([]byte, recHdrBytes+padded(w.n))
				copy(b[recHdrBytes:], dev.View(w.off, w.n))
				binary.LittleEndian.PutUint32(b, uint32(w.off))
				binary.LittleEndian.PutUint32(b[4:], uint32(w.n))
				binary.LittleEndian.PutUint64(b[8:], tag(l.seq+1, w.at, w.off, w.n, b[recHdrBytes:]))
				img = append(img, b...)
			}
			if got := dev.View(l.dataOff+used, n); !bytes.Equal(got, img) {
				t.Fatalf("tx %d batch %d: log image differs from the linear rule's", tx, batch)
			}
			logged = append(logged, want...)
			used += n
		}
		l.Commit()
	}
	if skipped < 1000 {
		t.Fatalf("only %d ranges were skipped: the rule is barely exercised", skipped)
	}
}
