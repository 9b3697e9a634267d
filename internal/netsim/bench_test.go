package netsim

import "testing"

// callsPerOp is the number of Call round trips one
// BenchmarkCallRoundTrip op runs: enough that one allocation per call
// lifts allocs/op above the benchmark gate's jitter floor.
const callsPerOp = 64

// BenchmarkCallRoundTrip measures warmed Call round trips whose
// response spans four fragments and asks for sent, callsPerOp of them
// per op.
func BenchmarkCallRoundTrip(b *testing.B) {
	r := newCallRig(1)
	for j := 0; j < callsPerOp; j++ {
		r.roundTrip()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < callsPerOp; j++ {
			r.roundTrip()
		}
	}
	b.StopTimer()
	if want := (b.N + 1) * callsPerOp; r.replies != want || r.sents != want {
		b.Fatalf("%d replies and %d sent callbacks for %d calls", r.replies, r.sents, want)
	}
}
