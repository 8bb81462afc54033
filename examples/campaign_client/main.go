// Campaign client: drive a running pes-serve instance over HTTP — submit a
// campaign, poll its progress, print the aggregate energy/QoS tables, and
// read the server's cache counters from /healthz. The submit answers once
// the campaign is done or after at most 50 ms, so a campaign that finishes
// in time comes back "done" and the poll loop below never runs.
//
// Start the service first, then run the client:
//
//	go run ./cmd/pes-serve -addr :8080 &
//	go run ./examples/campaign_client -addr http://localhost:8080
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"repro"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "pes-serve base URL")
	flag.Parse()

	campaign := pes.Campaign{
		Apps:       []string{"cnn", "ebay"},
		TraceSeeds: []int64{1, 2},
		Schedulers: []string{"EBS", "PES", "Oracle"},
		Sweep:      &pes.CampaignSweep{ConfidenceThresholds: []float64{0.5, 0.9}},
	}
	body, err := json.Marshal(campaign)
	if err != nil {
		log.Fatal(err)
	}
	st := post[pes.CampaignStatus](*addr+"/v1/campaigns", body)
	fmt.Printf("submitted campaign %s: %d sessions\n", st.ID, st.Sessions)

	for st.Status == "queued" || st.Status == "running" {
		time.Sleep(200 * time.Millisecond)
		st = get[pes.CampaignStatus](*addr + "/v1/campaigns/" + st.ID)
		fmt.Printf("  %s: %d/%d sessions\n", st.Status, st.Completed, st.Sessions)
	}
	if st.Status != "done" {
		log.Fatalf("campaign ended %s: %s", st.Status, st.Error)
	}

	res := get[pes.CampaignResults](*addr + "/v1/campaigns/" + st.ID + "/results")
	for _, tab := range res.Tables {
		if err := tab.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
	// Deployment counters are served by /healthz (and /metrics), not with
	// the campaign's results.
	h := get[struct {
		Stats pes.BatchStats `json:"stats"`
	}](*addr + "/healthz")
	fmt.Printf("server cache: %d sessions served, %d simulated, %d memo hits\n",
		h.Stats.Sessions, h.Stats.UniqueRuns, h.Stats.CacheHits)
}

func post[T any](url string, body []byte) T {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	return decode[T](resp)
}

func get[T any](url string) T {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	return decode[T](resp)
}

func decode[T any](resp *http.Response) T {
	defer resp.Body.Close()
	var v T
	if resp.StatusCode >= 300 {
		var apiErr struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&apiErr)
		log.Fatalf("%s: HTTP %d: %s", resp.Request.URL, resp.StatusCode, apiErr.Error)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		log.Fatal(err)
	}
	return v
}
