package dtx_test

import (
	"errors"
	"testing"
	"time"

	dtx "repro"
)

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestClusterFailover drives the public crash-recovery surface end to end:
// kill a replica under committed traffic, keep reading from the survivors,
// observe writes failing fast with the typed replica error, restart the
// site through recovery, and verify every replica converges to identical
// XML and writes resume.
func TestClusterFailover(t *testing.T) {
	cluster, err := dtx.New(dtx.Config{
		Sites:             3,
		StoreDir:          t.TempDir(),
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatMisses:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.LoadXML("d1",
		`<people><person><id>4</id><name>Ana</name></person></people>`); err != nil {
		t.Fatal(err)
	}

	// Committed traffic before the crash.
	if _, err := cluster.Submit(0, dtx.Change("d1", "//person[id='4']/name", "Bea")); err != nil {
		t.Fatal(err)
	}
	cluster.Sync()

	if err := cluster.KillSite(2); err != nil {
		t.Fatal(err)
	}

	// Reads on the document keep succeeding from the surviving replicas.
	waitFor(t, 5*time.Second, "reads from survivors", func() bool {
		res, err := cluster.Submit(0, dtx.Query("d1", "//person/name"))
		return err == nil && res.Committed && len(res.Results[0]) == 1 && res.Results[0][0] == "Bea"
	})

	// Writes touching the dead replica fail fast with the typed error.
	waitFor(t, 5*time.Second, "typed write failure", func() bool {
		_, err := cluster.Submit(0, dtx.Change("d1", "//person[id='4']/name", "Cal"))
		return errors.Is(err, dtx.ErrReplicaUnavailable)
	})

	// Restart through the recovery subsystem.
	report, err := cluster.RestartSite(2)
	if err != nil {
		t.Fatal(err)
	}
	if report.Site != 2 {
		t.Fatalf("report for wrong site: %+v", report)
	}

	// Every replica converges to identical XML.
	want, err := cluster.DocumentXML(0, "d1")
	if err != nil {
		t.Fatal(err)
	}
	for site := 1; site < 3; site++ {
		got, err := cluster.DocumentXML(site, "d1")
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("site %d diverged (report %s):\nwant %s\ngot  %s", site, report, want, got)
		}
	}

	// Writes resume once the survivors' heartbeats readmit the site.
	waitFor(t, 5*time.Second, "writes after restart", func() bool {
		res, err := cluster.Submit(1, dtx.Change("d1", "//person[id='4']/name", "Dan"))
		return err == nil && res.Committed
	})

	// And the restarted site applied the post-recovery write too.
	waitFor(t, 5*time.Second, "restarted replica current", func() bool {
		got, err := cluster.DocumentXML(2, "d1")
		return err == nil && got != "" && got == mustXML(t, cluster, 0, "d1")
	})

	// Liveness view settles back to up.
	waitFor(t, 5*time.Second, "peer readmitted", func() bool {
		peers, err := cluster.PeerStatuses(0)
		return err == nil && peers[2] == "up"
	})
}

func mustXML(t *testing.T, c *dtx.Cluster, site int, doc string) string {
	t.Helper()
	s, err := c.DocumentXML(site, doc)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRestartRequiresKill: RestartSite on a live site is refused.
func TestRestartRequiresKill(t *testing.T) {
	cluster, err := dtx.New(dtx.Config{Sites: 2, StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if _, err := cluster.RestartSite(1); err == nil {
		t.Fatal("restart of a live site accepted")
	}
	if _, err := cluster.RestartSite(7); !errors.Is(err, dtx.ErrSiteOutOfRange) {
		t.Fatalf("out-of-range restart: %v", err)
	}
}
