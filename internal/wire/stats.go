package wire

import (
	"fmt"

	"repro/internal/obs"
)

// OpStats response encoding. The server answers with resp.Count = number
// of operation classes that recorded anything, and resp.Values carrying
// opStatWords big-endian uint32 words per class:
//
//	class:u32 | count:u64 mean_ns:u64 p50:u64 p90:u64 p99:u64 p999:u64 max:u64
//
// each u64 split into hi:u32 lo:u32 (the frame payload is u32-native).
// Classes are ordered by their obs.LatClass index; empty classes are
// omitted. An obsoff server, or one whose deques never recorded latency,
// answers Count 0 with no payload.

// OpStat is one operation class's latency digest as carried by an
// OpStats response: count, mean, log-bucketed quantiles (~3% relative
// error), and max, all in nanoseconds.
type OpStat struct {
	Class  string `json:"class"`
	Count  uint64 `json:"count"`
	MeanNs uint64 `json:"mean_ns"`
	P50Ns  uint64 `json:"p50_ns"`
	P90Ns  uint64 `json:"p90_ns"`
	P99Ns  uint64 `json:"p99_ns"`
	P999Ns uint64 `json:"p999_ns"`
	MaxNs  uint64 `json:"max_ns"`
}

// opStatWords is the per-class word count: 1 class index + 7 u64 metrics
// as hi/lo pairs.
const opStatWords = 1 + 7*2

// AppendOpStats encodes the non-empty classes of set onto dst in class
// order and returns (extended values, class count).
func AppendOpStats(dst []uint32, set *obs.LatSnapshotSet) ([]uint32, uint32) {
	var n uint32
	for c := 0; c < int(obs.NumLatClasses); c++ {
		s := &set.Classes[c]
		if s.Count == 0 {
			continue
		}
		sum := s.Summary(obs.LatClass(c))
		dst = append(dst, uint32(c))
		for _, v := range [...]uint64{
			sum.Count, uint64(sum.MeanNs + 0.5),
			sum.P50Ns, sum.P90Ns, sum.P99Ns, sum.P999Ns, sum.MaxNs,
		} {
			dst = append(dst, uint32(v>>32), uint32(v))
		}
		n++
	}
	return dst, n
}

// DecodeOpStats parses an OpStats response payload.
func DecodeOpStats(vals []uint32) ([]OpStat, error) {
	if len(vals)%opStatWords != 0 {
		return nil, fmt.Errorf("%w: op-stats payload of %d words", ErrFrame, len(vals))
	}
	stats := make([]OpStat, 0, len(vals)/opStatWords)
	for i := 0; i < len(vals); i += opStatWords {
		w := vals[i : i+opStatWords]
		u64 := func(k int) uint64 { return uint64(w[1+2*k])<<32 | uint64(w[2+2*k]) }
		stats = append(stats, OpStat{
			Class:  obs.LatClass(w[0]).String(),
			Count:  u64(0),
			MeanNs: u64(1),
			P50Ns:  u64(2),
			P90Ns:  u64(3),
			P99Ns:  u64(4),
			P999Ns: u64(5),
			MaxNs:  u64(6),
		})
	}
	return stats, nil
}

// Stats queries the server's per-op-class latency snapshot. An empty
// slice means the server recorded nothing (or was built with obsoff).
func (c *Client) Stats() ([]OpStat, error) {
	resp, err := c.Do(&Request{Op: OpStats})
	if err != nil {
		return nil, err
	}
	if err := resp.Err(); err != nil {
		return nil, err
	}
	if int(resp.Count)*opStatWords != len(resp.Values) {
		return nil, fmt.Errorf("%w: op-stats response declared %d classes over %d words",
			ErrFrame, resp.Count, len(resp.Values))
	}
	return DecodeOpStats(resp.Values)
}

// OpRelax and OpDepq answer the same snapshot layout: Count carries the
// observed worst case (rank error or band inversion) and Values exactly
// snapshotGauges gauges, in the order of the RelaxStats / DepqStats
// fields that follow the worst case. Every word saturates at MaxUint32.
const snapshotGauges = 4

// SetSnapshot answers a bounded-relaxation snapshot op: StatusOK, the
// observed worst case in Count, and the gauges as the payload.
func (r *Response) SetSnapshot(worst uint64, gauges [snapshotGauges]uint64) {
	r.Status = StatusOK
	r.Count = clamp32(worst)
	for _, g := range gauges {
		r.Values = append(r.Values, clamp32(g))
	}
}

// snapshot queries a bounded-relaxation snapshot op and checks its
// payload carries exactly the gauges.
func (c *Client) snapshot(op uint8) (worst uint32, gauges [snapshotGauges]uint32, err error) {
	resp, err := c.Do(&Request{Op: op})
	if err != nil {
		return 0, gauges, err
	}
	if err := resp.Err(); err != nil {
		return 0, gauges, err
	}
	if len(resp.Values) != snapshotGauges {
		return 0, gauges, fmt.Errorf("%w: op %d snapshot carried %d values", ErrFrame, op, len(resp.Values))
	}
	copy(gauges[:], resp.Values)
	return resp.Count, gauges, nil
}

// clamp32 saturates a uint64 gauge into a wire uint32.
func clamp32(v uint64) uint32 {
	if v > 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(v)
}
