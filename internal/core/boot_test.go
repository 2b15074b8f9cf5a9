package core

import (
	"testing"

	"auragen/internal/guest"
	"auragen/internal/workload"
)

// BenchmarkBootToFirstWrite times what the repository benchmark's setup_s
// measures, on echo_ft's layout: four clusters from New, a backed-up echo
// server (cluster 2, backup 0) and a backed-up client (cluster 1, backup 3)
// spawned, to the client's first Open returning — the point where its first
// write would start. Every guest and receive loop starts on a fresh
// goroutine stack, so frame growth on the boot and message path shows here.
// Stop runs outside the timer.
func BenchmarkBootToFirstWrite(b *testing.B) {
	opened := make(chan struct{}, 1)
	reg := guest.NewRegistry()
	workload.Register(reg)
	reg.Register("open-once", guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{StartFunc: func(p guest.API, st *guest.State) error {
			if _, err := p.Open("dial:boot"); err != nil {
				return err
			}
			opened <- struct{}{}
			return nil
		}}
	}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := New(Options{Clusters: 4}, reg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Spawn("echo-server", []byte("boot"), SpawnConfig{Cluster: 2, BackupCluster: 0}); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Spawn("open-once", nil, SpawnConfig{Cluster: 1, BackupCluster: 3}); err != nil {
			b.Fatal(err)
		}
		<-opened
		b.StopTimer()
		sys.Stop()
		b.StartTimer()
	}
}
