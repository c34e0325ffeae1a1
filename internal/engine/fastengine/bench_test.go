package fastengine_test

import (
	"context"
	"testing"

	"amnesiacflood/internal/core"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/engine/fastengine"
	"amnesiacflood/internal/graph/gen"
)

func BenchmarkEngineComparison(b *testing.B) {
	g := gen.Grid(128, 32)
	flood := core.MustNewFlood(g, 0)
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := engine.Run(context.Background(), g, flood, engine.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fastengine.Run(context.Background(), g, flood, engine.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fastReused", func(b *testing.B) {
		e := fastengine.New(g)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Run(context.Background(), flood, engine.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
