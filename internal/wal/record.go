package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"math"
)

// The typed journal payloads. Each record is a self-contained gob blob
// (its own type preamble), so any valid WAL prefix decodes without
// state from earlier frames — the property torn-tail truncation relies
// on. Gob was chosen over a hand-rolled binary format deliberately:
// the fields are few, the framing layer already owns integrity, and
// gob's self-description keeps old logs readable when fields are
// added.

// Edge is one weighted undirected edge of a journaled graph.
type Edge struct {
	I, J int32
	W    float64
}

// Score is one scored node pair of a journaled transition.
type Score struct {
	I, J int32
	S    float64
}

// GraphData is the journaled form of one graph instance.
type GraphData struct {
	N      int32
	Edges  []Edge
	Labels []string
}

// TransitionData is the journaled form of one scored transition:
// transition T is the move from instance T to T+1, with scores sorted
// descending exactly as the detector produced them.
type TransitionData struct {
	T      int64
	Scores []Score
	Total  float64
}

// PushRecord journals one accepted push: the graph that arrived, the
// transition it produced (absent for the stream's first instance), and
// the detector-visible state after applying it. Digest chains every
// record to its predecessor (see StateDigest), so replay detects
// missing or reordered records, not just flipped bits.
type PushRecord struct {
	// Instance is the 0-based index of this graph in the stream.
	Instance int64
	Graph    GraphData
	// Scores and Total are the newest transition's output (transition
	// Instance-1); Scores is nil for Instance 0.
	Scores []Score
	Total  float64
	// Delta and Evicted are the detector's threshold and eviction
	// count after this push.
	Delta   float64
	Evicted int64
	// NewVertexIDs lists the external IDs this push interned, in
	// dense-index order starting at the stream's pre-push vertex count.
	// Nil for raw index streams and for pushes that added no vertices;
	// replay appends them to the accumulated ID table. (A gob-added
	// field: old logs decode with it nil.)
	NewVertexIDs []string
	// Digest is the state-digest chain value after this record.
	Digest uint64
}

// OracleData is the journaled form of the previous instance's
// embedding state (commute.State): every block is packed little-endian,
// float64 for Z, Y, ResBound and NormB and int32 for the spanning
// forest's Parent and Order. Packed bytes gob-encode as one copy,
// where a gob []float64 writes each value separately. Absent blocks
// are nil.
type OracleData struct {
	Z, Y, ResBound, NormB []byte
	Parent, Order         []byte
}

// StreamSnapshot is the compact snapshot that makes the log finite: the
// full recoverable state of one stream at an instant. Config is the
// owner's opaque stream configuration (the serving layer stores its
// StreamConfig JSON, which carries the embedding's projection seed so
// warm rebuilds stay bit-identical across a restart).
type StreamSnapshot struct {
	Config []byte
	// N is the stream's current vertex count (non-decreasing over the
	// stream's life); Instances the number of graphs consumed (so the
	// next expected instance index equals Instances); Evicted the
	// history-window eviction count.
	N         int32
	Instances int64
	Evicted   int64
	// Delta is the threshold at the snapshot instant.
	Delta float64
	// History is the retained scored-transition window.
	History []TransitionData
	// Prev is the most recent graph — the one the next arriving
	// instance is scored against. Nil only when Instances is 0.
	Prev *GraphData
	// VertexIDs is the external-ID table in dense-index order (nil for
	// raw index streams; len == N when set). A gob-added field: old
	// logs decode with it nil.
	VertexIDs []string
	// Oracle is the embedding state of Prev's commute oracle, so a
	// restore scores the next instance without rebuilding Prev's. It
	// describes Prev only: records replayed past the snapshot move Prev
	// on and the block no longer applies. Nil when the stream keeps no
	// embedding (exact oracles, the ADJ variant). A gob-added field:
	// snapshots written before it decode with it nil, and their streams
	// rebuild the oracle on the first push.
	Oracle *OracleData
	// Digest is the state-digest chain value at the snapshot instant;
	// WAL records appended after the snapshot chain from it.
	Digest uint64
}

// Pack packs v little-endian, as OracleData stores its blocks; nil
// stays nil.
func Pack[T float64 | int32](v []T) []byte {
	if v == nil {
		return nil
	}
	var zero T
	b := make([]byte, 0, binary.Size(zero)*len(v))
	switch v := any(v).(type) {
	case []float64:
		for _, x := range v {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	case []int32:
		for _, x := range v {
			b = binary.LittleEndian.AppendUint32(b, uint32(x))
		}
	}
	return b
}

// Unpack is the inverse of Pack. A length that is not a whole number of
// values is an error.
func Unpack[T float64 | int32](b []byte) ([]T, error) {
	if b == nil {
		return nil, nil
	}
	var zero T
	size := binary.Size(zero)
	if len(b)%size != 0 {
		return nil, fmt.Errorf("wal: packed block of %d bytes is not a whole number of %d-byte values", len(b), size)
	}
	v := make([]T, len(b)/size)
	switch v := any(v).(type) {
	case []float64:
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	case []int32:
		for i := range v {
			v[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
	}
	return v, nil
}

// EncodeRecord serializes a push record.
func EncodeRecord(r *PushRecord) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r); err != nil {
		return nil, fmt.Errorf("wal: encode record: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeRecord deserializes a push record.
func DecodeRecord(payload []byte) (*PushRecord, error) {
	var r PushRecord
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&r); err != nil {
		return nil, fmt.Errorf("wal: decode record: %w", err)
	}
	return &r, nil
}

// EncodeSnapshot serializes a stream snapshot.
func EncodeSnapshot(s *StreamSnapshot) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, fmt.Errorf("wal: encode snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeSnapshot deserializes a stream snapshot.
func DecodeSnapshot(payload []byte) (*StreamSnapshot, error) {
	var s StreamSnapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&s); err != nil {
		return nil, fmt.Errorf("wal: decode snapshot: %w", err)
	}
	return &s, nil
}

// StateDigest chains a fingerprint of the detector-visible state after
// one push: FNV-64a over the previous chain value, the instance index,
// the post-push threshold bits, the eviction count and the newest
// transition's total-score bits. δ is an exact function of the whole
// retained score history, so two runs that agree on every chained
// digest agree on every journaled report — this is what recovery
// verifies the replayed state against.
func StateDigest(prev uint64, instance int64, delta float64, evicted int64, total float64) uint64 {
	var b [40]byte
	binary.LittleEndian.PutUint64(b[0:8], prev)
	binary.LittleEndian.PutUint64(b[8:16], uint64(instance))
	binary.LittleEndian.PutUint64(b[16:24], math.Float64bits(delta))
	binary.LittleEndian.PutUint64(b[24:32], uint64(evicted))
	binary.LittleEndian.PutUint64(b[32:40], math.Float64bits(total))
	h := fnv.New64a()
	h.Write(b[:])
	return h.Sum64()
}
