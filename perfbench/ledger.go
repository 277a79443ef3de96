package main

// Every value a workload pushes names its producer and that producer's
// sequence number, so the values that come out can be checked against
// the ones that went in.
const (
	seqBits      = 30
	seqMask      = 1<<seqBits - 1
	maxProducers = 4 // two workers or connections, the prefill, one spare
)

func encode(producer int, seq uint32) uint32 { return uint32(producer)<<seqBits | seq&seqMask }

func decode(v uint32) (producer int, seq uint32) { return int(v >> seqBits), v & seqMask }

// fingerprint maps a value to 64 well-mixed bits (the splitmix64
// finalizer). Sums of fingerprints compare multisets: the values that came
// out equal the values that went in, each exactly once, when the counts
// and the sums agree. Memory stays constant however long a run is, so the
// check does not grow the peak RSS the benchmark reports.
func fingerprint(v uint32) uint64 {
	x := uint64(v) + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// pushLedger records what one producer put in.
type pushLedger struct {
	next  uint32 // sequence numbers handed out so far
	count uint64 // values the structure accepted
	sum   uint64 // sum of their fingerprints
}

func (l *pushLedger) accept(v uint32) {
	l.count++
	l.sum += fingerprint(v)
}

// popLedger records the values one consumer took out. Each consumer owns
// its ledger, so recording needs no synchronization; the ledgers are
// compared once the run has stopped.
type popLedger struct {
	count     [maxProducers]uint64
	sum       [maxProducers]uint64
	last      [maxProducers]int64 // last sequence taken per producer, -1 for none
	maxSeq    [maxProducers]int64 // highest sequence taken per producer, -1 for none
	unknown   uint64              // values naming no producer
	fifoFails uint64              // values taken after a later one of their producer
}

func newPopLedger() *popLedger {
	l := &popLedger{}
	for i := range l.last {
		l.last[i], l.maxSeq[i] = -1, -1
	}
	return l
}

func (l *popLedger) record(v uint32) {
	p, seq := decode(v)
	if p >= maxProducers {
		l.unknown++
		return
	}
	l.count[p]++
	l.sum[p] += fingerprint(v)
	if int64(seq) <= l.last[p] {
		l.fifoFails++
	}
	l.last[p] = int64(seq)
	l.maxSeq[p] = max(l.maxSeq[p], int64(seq))
}

// violations counts correctness failures by name.
type violations map[string]uint64

func (v violations) total() uint64 {
	var n uint64
	for _, c := range v {
		n += c
	}
	return n
}

// checkConservation compares what went in with what came out, after the
// structure has been drained into one of the ledgers: every accepted
// value must have come out exactly once. pushed is indexed by producer.
// With fifo set, each consumer must also have seen every producer's
// values in the order they were pushed.
//
// Violations, per producer:
//   - conservation.lost: fewer values came out than went in;
//   - conservation.extra: more came out (a value twice, or one never pushed);
//   - conservation.mismatch: as many came out, but not the same ones;
//   - conservation.phantom: values naming no producer, or a sequence the
//     producer never handed out;
//   - fifo.order: a consumer took a producer's value after a later one.
func checkConservation(pushed []pushLedger, popped []*popLedger, fifo bool) violations {
	v := violations{}
	for _, l := range popped {
		v["conservation.phantom"] += l.unknown
		if fifo {
			v["fifo.order"] += l.fifoFails
		}
	}
	for p := 0; p < maxProducers; p++ {
		var in pushLedger
		if p < len(pushed) {
			in = pushed[p]
		}
		var count, sum uint64
		for _, l := range popped {
			count += l.count[p]
			sum += l.sum[p]
			if l.maxSeq[p] >= int64(in.next) {
				v["conservation.phantom"]++
			}
		}
		switch {
		case count < in.count:
			v["conservation.lost"] += in.count - count
		case count > in.count:
			v["conservation.extra"] += count - in.count
		case sum != in.sum:
			v["conservation.mismatch"]++
		}
	}
	for k, c := range v {
		if c == 0 {
			delete(v, k)
		}
	}
	return v
}
