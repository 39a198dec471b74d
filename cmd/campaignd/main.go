// Command campaignd is the long-running attack-campaign orchestration
// service: an HTTP/JSON daemon over the fleet campaign engine with a
// durable job queue, streaming results, cross-fleet SKU aggregation and
// checkpoint/resume.
//
// Usage:
//
//	campaignd -addr :8077 -dir /var/lib/campaignd
//
// Submit a fleet and follow it:
//
//	curl -s localhost:8077/v1/fleets -d @fleet.json        # → {"ID":"f000000",...}
//	curl -s localhost:8077/v1/fleets/f000000               # status
//	curl -sN localhost:8077/v1/fleets/f000000/stream       # JSONL results, live
//	curl -s  localhost:8077/v1/skus                        # cross-fleet SKU stats
//
// Kill the daemon mid-fleet and restart it with the same -dir: the
// fleet resumes from its last fsynced campaign and finishes with the
// same digest an uninterrupted run reports.
//
// -demo runs a self-contained smoke fleet through the real HTTP stack
// and exits; no flags or state directory required.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rowhammer/internal/campaign/server"
)

// readHeaderTimeout bounds how long a client may take to send request
// headers, so idle or slow connections cannot pin server goroutines.
const readHeaderTimeout = 10 * time.Second

func main() {
	addr := flag.String("addr", "127.0.0.1:8077", "HTTP listen address")
	dir := flag.String("dir", "", "durable state directory (required unless -demo)")
	workers := flag.Int("workers", 4, "concurrent campaigns per fleet")
	arenaMB := flag.Int("arena-mb", 0, "cap on estimated in-flight DRAM state, MB (0 = uncapped)")
	cacheEntries := flag.Int("cache-entries", 64, "profile cache bound, entries (0 = unbounded)")
	demo := flag.Bool("demo", false, "run a self-contained demo fleet and exit")
	flag.Parse()

	if *demo {
		if err := runDemo(*workers, *cacheEntries); err != nil {
			log.Fatalf("campaignd: demo: %v", err)
		}
		return
	}

	if *dir == "" {
		log.Fatal("campaignd: -dir is required (or use -demo)")
	}
	srv, err := server.New(server.Config{
		Dir:          *dir,
		Workers:      *workers,
		MaxArenaMB:   *arenaMB,
		CacheEntries: *cacheEntries,
		Logf:         log.Printf,
	})
	if err != nil {
		log.Fatalf("campaignd: %v", err)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Print("campaignd: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
	}()
	log.Printf("campaignd: serving on %s, state in %s", *addr, *dir)
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatalf("campaignd: %v", err)
	}
	srv.Close()
}

// runDemo exercises the full daemon through its real HTTP surface:
// submit the built-in two-SKU fleet, stream its results, print the
// final status, and exit zero only if every campaign succeeded.
func runDemo(workers, cacheEntries int) error {
	dir, err := os.MkdirTemp("", "campaignd-demo-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	srv, err := server.New(server.Config{
		Dir: dir, Workers: workers, CacheEntries: cacheEntries, Logf: log.Printf,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	spec, err := json.Marshal(server.DemoFleet(3))
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/v1/fleets", "application/json", bytes.NewReader(spec))
	if err != nil {
		return err
	}
	var sub struct{ ID string }
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	fmt.Printf("submitted demo fleet %s\n", sub.ID)

	stream, err := http.Get(base + "/v1/fleets/" + sub.ID + "/stream")
	if err != nil {
		return err
	}
	defer stream.Body.Close()
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<30)
	for sc.Scan() {
		var r struct {
			Index    int
			Name     string
			SKU      string
			CacheHit bool
			Online   *struct{ NMatch, NRequired int }
			Err      string
		}
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return fmt.Errorf("stream line: %w", err)
		}
		if r.Err != "" {
			fmt.Printf("  campaign %2d %-12s %-22s FAILED: %s\n", r.Index, r.Name, r.SKU, r.Err)
			continue
		}
		hit := " "
		if r.CacheHit {
			hit = "*"
		}
		fmt.Printf("  campaign %2d %-12s %-22s %s matched %d/%d\n",
			r.Index, r.Name, r.SKU, hit, r.Online.NMatch, r.Online.NRequired)
	}
	if err := sc.Err(); err != nil {
		return err
	}

	resp, err = http.Get(base + "/v1/fleets/" + sub.ID)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var st server.FleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}
	fmt.Printf("fleet %s: %s, %d campaigns, %d cache hits, %d failed\ndigest %s\n",
		st.ID, st.State, st.Campaigns, st.CacheHits, st.Failed, st.Digest)
	if st.State != "done" || st.Failed != 0 {
		return fmt.Errorf("demo fleet state=%s failed=%d", st.State, st.Failed)
	}
	return nil
}
