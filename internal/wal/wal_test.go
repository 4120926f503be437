package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// reopen collects every replayed payload from path.
func reopen(t *testing.T, path string, opts Options) (*Log, Recovery, [][]byte) {
	t.Helper()
	var got [][]byte
	l, rec, err := Open(path, opts, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec, got
}

func TestLogAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, rec, _ := reopen(t, path, Options{Fsync: true})
	if rec.Records != 0 || rec.TruncatedBytes != 0 {
		t.Fatalf("fresh log reported recovery %+v", rec)
	}
	want := [][]byte{[]byte("one"), []byte("two-two"), bytes.Repeat([]byte{0xAB}, 10_000)}
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec, got := reopen(t, path, Options{})
	defer l2.Close()
	if rec.Records != len(want) || rec.TruncatedBytes != 0 {
		t.Fatalf("recovery %+v, want %d clean records", rec, len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: got %q want %q", i, got[i], want[i])
		}
	}
	// Appending after recovery extends, not clobbers.
	if err := l2.Append([]byte("post-recovery")); err != nil {
		t.Fatal(err)
	}
	_, rec, got = reopen(t, path, Options{})
	if rec.Records != 4 || string(got[3]) != "post-recovery" {
		t.Fatalf("post-recovery append lost: %+v %q", rec, got)
	}
}

func TestLogTornTailTruncated(t *testing.T) {
	for _, cut := range []int64{1, 3, 7, 9} { // inside header and inside payload of the last frame
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			l, _, _ := reopen(t, path, Options{})
			if err := l.Append([]byte("keep-me")); err != nil {
				t.Fatal(err)
			}
			mark := l.Size()
			if err := l.Append([]byte("torn-record")); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			// Simulate a crash mid-append: cut the last frame short.
			if err := os.Truncate(path, mark+cut); err != nil {
				t.Fatal(err)
			}

			l2, rec, got := reopen(t, path, Options{})
			if rec.Records != 1 || len(got) != 1 || string(got[0]) != "keep-me" {
				t.Fatalf("recovery %+v payloads %q, want just keep-me", rec, got)
			}
			if rec.TruncatedBytes != cut {
				t.Fatalf("TruncatedBytes %d, want %d", rec.TruncatedBytes, cut)
			}
			// The repaired log accepts appends and replays cleanly.
			if err := l2.Append([]byte("after-repair")); err != nil {
				t.Fatal(err)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			_, rec, got = reopen(t, path, Options{})
			if rec.Records != 2 || rec.TruncatedBytes != 0 || string(got[1]) != "after-repair" {
				t.Fatalf("repaired log replay %+v %q", rec, got)
			}
		})
	}
}

func TestLogCorruptCRCTruncatesFromCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, _ := reopen(t, path, Options{})
	var marks []int64
	for _, p := range []string{"aaaa", "bbbb", "cccc"} {
		marks = append(marks, l.Size())
		if err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the second record.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[marks[1]+frameHeaderSize] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec, got := reopen(t, path, Options{})
	if rec.Records != 1 || string(got[0]) != "aaaa" {
		t.Fatalf("corrupt middle: recovered %+v %q, want only the prefix before the corruption", rec, got)
	}
	if rec.TruncatedBytes == 0 {
		t.Fatal("corruption not reported as truncation")
	}
	if st, _ := os.Stat(path); st.Size() != marks[1] {
		t.Fatalf("file not truncated at corruption: size %d want %d", st.Size(), marks[1])
	}
}

func TestLogReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, _ := reopen(t, path, Options{})
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 {
		t.Fatalf("size %d after reset", l.Size())
	}
	if err := l.Append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, got := reopen(t, path, Options{})
	if rec.Records != 1 || string(got[0]) != "fresh" {
		t.Fatalf("post-reset replay %+v %q", rec, got)
	}
}

func TestSnapshotAtomicRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.bin")
	if _, err := ReadSnapshotFile(path); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("missing snapshot: %v, want ErrNoSnapshot", err)
	}
	payload := bytes.Repeat([]byte("snap"), 1000)
	if err := WriteSnapshotFile(path, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("snapshot payload mismatch")
	}
	// Overwrite is atomic-by-rename; the new content fully replaces.
	if err := WriteSnapshotFile(path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ = ReadSnapshotFile(path); string(got) != "v2" {
		t.Fatalf("rotation left %q", got)
	}
	// No temp litter.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("snapshot dir has %d entries, want 1", len(entries))
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.bin")
	if err := WriteSnapshotFile(path, []byte("precious state")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshotFile(path); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
	// Bad magic.
	if err := os.WriteFile(path, []byte("NOTASNAPXXXX"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshotFile(path); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	r := &PushRecord{
		Instance: 7,
		Graph: GraphData{
			N:      5,
			Edges:  []Edge{{I: 0, J: 1, W: 1.5}, {I: 3, J: 4, W: 0.25}},
			Labels: []string{"a", "b", "c", "d", "e"},
		},
		Scores:  []Score{{I: 0, J: 1, S: 3.25}},
		Total:   3.25,
		Delta:   1.125,
		Evicted: 2,
	}
	r.Digest = StateDigest(99, r.Instance, r.Delta, r.Evicted, r.Total)
	buf, err := EncodeRecord(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeRecord(buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Instance != r.Instance || back.Delta != r.Delta || back.Digest != r.Digest ||
		len(back.Graph.Edges) != 2 || back.Graph.Labels[4] != "e" || back.Scores[0] != r.Scores[0] {
		t.Fatalf("record round trip mismatch: %+v", back)
	}

	s := &StreamSnapshot{
		Config:    []byte(`{"l":5}`),
		N:         5,
		Instances: 8,
		Evicted:   2,
		Delta:     1.125,
		History:   []TransitionData{{T: 6, Scores: []Score{{I: 1, J: 2, S: 9}}, Total: 9}},
		Prev:      &r.Graph,
		Digest:    r.Digest,
	}
	sb, err := EncodeSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	sback, err := DecodeSnapshot(sb)
	if err != nil {
		t.Fatal(err)
	}
	if sback.Instances != 8 || sback.Prev == nil || sback.Prev.N != 5 ||
		len(sback.History) != 1 || sback.History[0].Scores[0].S != 9 || sback.Digest != r.Digest {
		t.Fatalf("snapshot round trip mismatch: %+v", sback)
	}
	if _, err := DecodeRecord([]byte("not gob")); err == nil {
		t.Fatal("garbage decoded as record")
	}
}

func TestStateDigestChainsAndDiscriminates(t *testing.T) {
	d1 := StateDigest(0, 1, 0.5, 0, 10)
	if d1 != StateDigest(0, 1, 0.5, 0, 10) {
		t.Fatal("digest not deterministic")
	}
	for _, d := range []uint64{
		StateDigest(1, 1, 0.5, 0, 10), // different chain
		StateDigest(0, 2, 0.5, 0, 10), // different instance
		StateDigest(0, 1, 0.6, 0, 10), // different delta
		StateDigest(0, 1, 0.5, 1, 10), // different eviction
		StateDigest(0, 1, 0.5, 0, 11), // different total
	} {
		if d == d1 {
			t.Fatal("digest collision across distinct states")
		}
	}
}

// TestOracleBlocksRoundTrip: the packed oracle blocks come back bit for
// bit through Pack, a snapshot's gob encoding and Unpack; absent blocks
// stay absent, and a block that is not a whole number of values is
// refused.
func TestOracleBlocksRoundTrip(t *testing.T) {
	z := []float64{0, -1.5, math.Inf(1), math.Float64frombits(0x7ff8000000000001), math.SmallestNonzeroFloat64}
	parent := []int32{-1, 0, 0, 1}
	s := &StreamSnapshot{N: 4, Instances: 1, Oracle: &OracleData{Z: Pack(z), Parent: Pack(parent)}}
	payload, err := EncodeSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	gotZ, err := Unpack[float64](back.Oracle.Z)
	if err != nil {
		t.Fatal(err)
	}
	for i := range z {
		if math.Float64bits(gotZ[i]) != math.Float64bits(z[i]) {
			t.Fatalf("z[%d] = %x, want %x", i, math.Float64bits(gotZ[i]), math.Float64bits(z[i]))
		}
	}
	gotParent, err := Unpack[int32](back.Oracle.Parent)
	if err != nil || !slices.Equal(gotParent, parent) {
		t.Fatalf("parent = %v (%v), want %v", gotParent, err, parent)
	}
	if y, err := Unpack[float64](back.Oracle.Y); y != nil || err != nil || Pack[float64](nil) != nil {
		t.Fatalf("absent block unpacked to %v, %v", y, err)
	}
	if _, err := Unpack[float64](back.Oracle.Z[:11]); err == nil {
		t.Fatal("11-byte float64 block accepted")
	}
	if _, err := Unpack[int32](back.Oracle.Parent[:3]); err == nil {
		t.Fatal("3-byte int32 block accepted")
	}
}
