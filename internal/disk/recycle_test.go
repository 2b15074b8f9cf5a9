package disk

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"auragen/internal/types"
)

// referenceDisk is the disk as it was before buffers were recycled: every
// write stores a fresh copy per healthy mirror and a free drops it. The
// differential test holds Disk to it.
type referenceDisk struct {
	blockSize int
	next      BlockID
	mirror    [NumMirrors]map[BlockID][]byte
	failed    [NumMirrors]bool
}

func newReferenceDisk(blockSize int) *referenceDisk {
	r := &referenceDisk{blockSize: blockSize, next: 1}
	for i := range r.mirror {
		r.mirror[i] = make(map[BlockID][]byte)
	}
	return r
}

func (r *referenceDisk) alloc() BlockID { r.next++; return r.next - 1 }

func (r *referenceDisk) write(id BlockID, data []byte) bool {
	if len(data) > r.blockSize {
		return false
	}
	ok := false
	for i := range r.mirror {
		if !r.failed[i] {
			r.mirror[i][id] = append([]byte{}, data...)
			ok = true
		}
	}
	return ok
}

func (r *referenceDisk) read(id BlockID) ([]byte, bool) {
	for i := range r.mirror {
		if !r.failed[i] {
			b, ok := r.mirror[i][id]
			return b, ok
		}
	}
	return nil, false
}

func (r *referenceDisk) free(id BlockID) {
	for i := range r.mirror {
		if !r.failed[i] {
			delete(r.mirror[i], id)
		}
	}
}

func (r *referenceDisk) resilver(i int) bool {
	src := 1 - i
	if r.failed[src] {
		return false
	}
	r.mirror[i] = make(map[BlockID][]byte, len(r.mirror[src]))
	for id, b := range r.mirror[src] {
		r.mirror[i][id] = append([]byte{}, b...)
	}
	r.failed[i] = false
	return true
}

// sameMirrors compares every mirror, failed ones included (a failed mirror
// keeps what it held when it failed), and checks the buffer invariants the
// recycling rests on: capacity blockSize, and no buffer stored twice or
// stored while spare.
func sameMirrors(t *testing.T, d *Disk, r *referenceDisk, at string) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	owner := make(map[*byte]string)
	claim := func(b []byte, who string) {
		if cap(b) != d.blockSize {
			t.Fatalf("%s: %s has capacity %d, want %d", at, who, cap(b), d.blockSize)
		}
		first := &b[:1][0]
		if prev, dup := owner[first]; dup {
			t.Fatalf("%s: one buffer is both %s and %s", at, prev, who)
		}
		owner[first] = who
	}
	for i := range d.mirror {
		if d.failed[i] != r.failed[i] || len(d.mirror[i]) != len(r.mirror[i]) {
			t.Fatalf("%s: mirror %d failed=%v with %d blocks, reference failed=%v with %d", at, i, d.failed[i], len(d.mirror[i]), r.failed[i], len(r.mirror[i]))
		}
		for id, want := range r.mirror[i] {
			got, ok := d.mirror[i][id]
			if !ok || !bytes.Equal(got, want) {
				t.Fatalf("%s: mirror %d block %d = %x (present %v), reference %x", at, i, id, got, ok, want)
			}
			claim(got, fmt.Sprintf("mirror %d block %d", i, id))
		}
	}
	if len(d.spare) > maxSpare {
		t.Fatalf("%s: %d spare buffers, bound %d", at, len(d.spare), maxSpare)
	}
	for j, b := range d.spare {
		claim(b, fmt.Sprintf("spare %d", j))
	}
}

// TestRecyclingMatchesFreshCopies drives Disk and the reference through the
// same seeded Alloc/Write/Free/Read/FailMirror/Resilver sequences, with
// writes of every length from empty to a block and a little over.
func TestRecyclingMatchesFreshCopies(t *testing.T) {
	const blockSize = 48
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, r := New("t", blockSize, 0, 1), newReferenceDisk(blockSize)
		pick := func() BlockID { // live, freed or never allocated
			return BlockID(1 + rng.Intn(int(r.next)))
		}
		for step := 0; step < 600; step++ {
			at := fmt.Sprintf("seed %d step %d", seed, step)
			port := types.ClusterID(rng.Intn(2))
			switch op := rng.Intn(24); {
			case op < 5:
				id, err := d.Alloc(port)
				if want := r.alloc(); err != nil || id != want {
					t.Fatalf("%s: Alloc = %d, %v; reference %d", at, id, err, want)
				}
			case op < 13:
				id, data := pick(), make([]byte, rng.Intn(blockSize+2))
				rng.Read(data)
				err := d.Write(port, id, data)
				if want := r.write(id, data); (err == nil) != want {
					t.Fatalf("%s: Write of %d bytes: %v; reference accepted=%v", at, len(data), err, want)
				}
				for i := range data { // the caller's slice is the caller's again
					data[i] ^= 0xFF
				}
			case op < 17:
				id := pick()
				if err := d.Free(port, id); err != nil {
					t.Fatalf("%s: Free: %v", at, err)
				}
				r.free(id)
			case op < 21:
				id := pick()
				got, err := d.Read(port, id)
				want, ok := r.read(id)
				if (err == nil) != ok || !bytes.Equal(got, want) {
					t.Fatalf("%s: Read(%d) = %x, %v; reference %x, %v", at, id, got, err, want, ok)
				}
				if len(got) > 0 {
					got[0] ^= 0xFF // a read is a copy
				}
			case op < 22:
				i := rng.Intn(NumMirrors)
				if err := d.FailMirror(i); err != nil {
					t.Fatalf("%s: FailMirror: %v", at, err)
				}
				r.failed[i] = true
			default:
				i := rng.Intn(NumMirrors)
				if err, want := d.Resilver(i), r.resilver(i); (err == nil) != want {
					t.Fatalf("%s: Resilver(%d): %v; reference ok=%v", at, i, err, want)
				}
			}
			sameMirrors(t, d, r, at)
			wantEqual := !r.failed[0] && !r.failed[1] && reflect.DeepEqual(r.mirror[0], r.mirror[1])
			if got := d.MirrorsEqual(); got != wantEqual {
				t.Fatalf("%s: MirrorsEqual = %v, reference %v", at, got, wantEqual)
			}
		}
	}
}

// TestRecycledBufferHidesPreviousTenant: a long block is freed and its
// buffers go to a short write of another block; reads of that block, from
// either mirror, return the short bytes and nothing of the old tenant.
func TestRecycledBufferHidesPreviousTenant(t *testing.T) {
	d := New("t", 64, 0, 1)
	long, _ := d.Alloc(0)
	if err := d.Write(0, long, bytes.Repeat([]byte{0xEE}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(0, long); err != nil {
		t.Fatal(err)
	}
	short, _ := d.Alloc(0)
	if err := d.Write(0, short, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if len(d.spare) != 0 {
		t.Fatalf("%d buffers still spare: the short write did not recycle the freed ones", len(d.spare))
	}
	if !d.MirrorsEqual() {
		t.Fatal("mirrors differ after a recycled write")
	}
	for serving := 0; serving < NumMirrors; serving++ { // Read serves from the first healthy mirror
		got, err := d.Read(1, short)
		if err != nil || string(got) != "abc" {
			t.Fatalf("with mirror %d serving: Read = %q, %v; want \"abc\"", serving, got, err)
		}
		_ = d.FailMirror(serving)
	}
	// The same in place: a short overwrite of a long block.
	d = New("t", 64, 0, 1)
	short, _ = d.Alloc(0)
	if err := d.Write(0, short, bytes.Repeat([]byte{0xDD}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(0, short, []byte("z")); err != nil {
		t.Fatal(err)
	}
	if got, _ := d.Read(0, short); string(got) != "z" {
		t.Fatalf("short overwrite reads back %q", got)
	}
}

// TestSteadyStateWritesAllocateNothing: an overwrite reuses the block's own
// buffers, and a block written after another was freed reuses the freed
// ones — what a page server's disk sees at every sync.
func TestSteadyStateWritesAllocateNothing(t *testing.T) {
	d := New("t", 1024, 0, 1)
	data := bytes.Repeat([]byte{7}, 1024)
	id, _ := d.Alloc(0)
	if err := d.Write(0, id, data); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = d.Write(0, id, data) }); n != 0 {
		t.Errorf("overwrite allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		next, _ := d.Alloc(0)
		_ = d.Write(0, next, data)
		_ = d.Free(0, id)
		id = next
	}); n != 0 {
		t.Errorf("write-new-then-free-old allocates %v times, want 0", n)
	}
}

// TestSpareListIsBounded: freeing a whole large account at once keeps at most
// maxSpare buffers.
func TestSpareListIsBounded(t *testing.T) {
	d := New("t", 8, 0, 1)
	var ids []BlockID
	for i := 0; i < maxSpare; i++ { // two buffers each: twice the bound
		id, _ := d.Alloc(0)
		_ = d.Write(0, id, []byte{1})
		ids = append(ids, id)
	}
	for _, id := range ids {
		_ = d.Free(0, id)
	}
	if len(d.spare) != maxSpare || d.Blocks() != 0 {
		t.Fatalf("%d spare buffers (bound %d), %d blocks left", len(d.spare), maxSpare, d.Blocks())
	}
}

// BenchmarkDiskWrite is the page server's disk at a sync: the overwrite of a
// block in place, and the write of a new block followed by the free of the
// one it replaces.
func BenchmarkDiskWrite(b *testing.B) {
	data := bytes.Repeat([]byte{7}, 1024)
	b.Run("overwrite", func(b *testing.B) {
		d := New("b", 1024, 0, 1)
		id, _ := d.Alloc(0)
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if err := d.Write(0, id, data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("alloc-write-free", func(b *testing.B) {
		d := New("b", 1024, 0, 1)
		id, _ := d.Alloc(0)
		_ = d.Write(0, id, data)
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			next, _ := d.Alloc(0)
			if err := d.Write(0, next, data); err != nil {
				b.Fatal(err)
			}
			_ = d.Free(0, id)
			id = next
		}
	})
}
