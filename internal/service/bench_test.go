package service

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// BenchmarkServiceStudy measures GET /v1/study end to end on a warm
// cache: admission, memo hit, and the canonical campaign encoding —
// the serving path every cached daemon request pays.  The campaign is
// computed once before the timer starts.  make bench records it in
// BENCH_service.json for the CI regression gate.
func BenchmarkServiceStudy(b *testing.B) {
	srv := New(Config{MaxInFlight: 8})
	warm := httptest.NewRecorder()
	srv.ServeHTTP(warm, httptest.NewRequest("GET", "/v1/study?scale=quick", nil))
	if warm.Code != http.StatusOK {
		b.Fatalf("warmup = %d: %s", warm.Code, warm.Body.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/study?scale=quick", nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("status = %d", rec.Code)
		}
	}
	b.SetBytes(int64(warm.Body.Len()))
}

// BenchmarkMetricsRecord measures the per-request metrics cost under
// parallelism — the path every handler pays on every request.  Its
// "before" shape (one global mutex around a map of per-endpoint
// structs) is preserved as obs's BenchmarkMutexMapRecord; this is the
// sharded-histogram "after".
func BenchmarkMetricsRecord(b *testing.B) {
	m := newMetrics()
	m.register("study")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		d := time.Microsecond
		for pb.Next() {
			d += 37 * time.Nanosecond
			m.record("study", d, false)
		}
	})
}
