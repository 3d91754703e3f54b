package main

// uss cluster — operator commands against a running cluster node's
// /v1/cluster endpoints: status prints the node's view of the ring
// (peer health, held copies, fan/read counters) and, with -name, a
// sketch's owner set; antientropy triggers an immediate round.

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"
)

// runCluster dispatches the cluster subcommands.
func runCluster(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("cluster: need a subcommand: status or antientropy")
	}
	switch args[0] {
	case "status":
		return runClusterStatus(args[1:])
	case "antientropy":
		return runClusterAE(args[1:])
	default:
		return fmt.Errorf("cluster: unknown subcommand %q (want status or antientropy)", args[0])
	}
}

// clusterStatus mirrors the /v1/cluster/status response shape.
type clusterStatus struct {
	Self              string            `json:"self"`
	Peers             map[string]string `json:"peers"`
	ReplicationFactor int               `json:"replication_factor"`
	ReadQuorum        int               `json:"read_quorum"`
	Owners            []string          `json:"owners,omitempty"`
	Copies            []struct {
		Name  string `json:"name"`
		Owner string `json:"owner"`
		Stats struct {
			Rows   int64 `json:"rows"`
			Pushes int64 `json:"pushes"`
		} `json:"stats"`
		Total float64 `json:"total"`
	} `json:"copies"`
	Breakers map[string]string `json:"breakers"`
	Counters map[string]int64  `json:"counters"`
}

func runClusterStatus(args []string) error {
	fs := flag.NewFlagSet("cluster status", flag.ExitOnError)
	url := fs.String("url", "http://127.0.0.1:8632", "cluster node base URL")
	name := fs.String("name", "", "also print this sketch's owner set")
	timeout := fs.Duration("timeout", 5*time.Second, "request deadline")
	fs.Parse(args)

	u := strings.TrimSuffix(*url, "/") + "/v1/cluster/status"
	if *name != "" {
		u += "?name=" + *name
	}
	cli := &http.Client{Timeout: *timeout}
	resp, err := cli.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", u, resp.StatusCode)
	}
	var st clusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}
	fmt.Printf("%s\n", st.Self)
	fmt.Printf("  replication %d, read quorum %d\n", st.ReplicationFactor, st.ReadQuorum)
	if line := pressureLine(cli, strings.TrimSuffix(*url, "/")); line != "" {
		fmt.Printf("  pressure    %s\n", line)
	}
	peers := make([]string, 0, len(st.Peers))
	for p := range st.Peers {
		peers = append(peers, p)
	}
	sort.Strings(peers)
	for _, p := range peers {
		breaker := st.Breakers[p]
		if breaker == "" {
			breaker = "closed"
		}
		fmt.Printf("  peer        %-32s %-5s breaker %s\n", p, st.Peers[p], breaker)
	}
	if len(st.Owners) > 0 {
		fmt.Printf("  owners(%s)  %s\n", *name, strings.Join(st.Owners, ", "))
	}
	for _, c := range st.Copies {
		fmt.Printf("  copy        %s of %s: %d rows, %d pushes, total %.1f\n",
			c.Name, c.Owner, c.Stats.Rows, c.Stats.Pushes, c.Total)
	}
	keys := make([]string, 0, len(st.Counters))
	for k := range st.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-22s %d\n", k, st.Counters[k])
	}
	return nil
}

// pressureLine summarizes the node's /readyz pressure fields: disk
// pressure, read-only and shedding flags. Empty when the probe is
// unreachable or predates the pressure report.
func pressureLine(cli *http.Client, base string) string {
	resp, err := cli.Get(base + "/readyz")
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	var rz struct {
		Pressure string `json:"pressure"`
		ReadOnly bool   `json:"read_only"`
		Shedding bool   `json:"shedding"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rz); err != nil {
		return ""
	}
	parts := []string{}
	if rz.Pressure != "" {
		parts = append(parts, "disk "+rz.Pressure)
	}
	if rz.ReadOnly {
		parts = append(parts, "READ-ONLY")
	}
	if rz.Shedding {
		parts = append(parts, "SHEDDING")
	}
	if len(parts) == 0 {
		return ""
	}
	return strings.Join(parts, ", ")
}

func runClusterAE(args []string) error {
	fs := flag.NewFlagSet("cluster antientropy", flag.ExitOnError)
	url := fs.String("url", "", "cluster node base URL (required)")
	timeout := fs.Duration("timeout", 30*time.Second, "request deadline")
	fs.Parse(args)
	if *url == "" {
		return fmt.Errorf("cluster antientropy: -url is required")
	}
	cli := &http.Client{Timeout: *timeout}
	resp, err := cli.Post(strings.TrimSuffix(*url, "/")+"/v1/cluster/antientropy", "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var st struct {
		Peers   int      `json:"peers"`
		Pulled  int      `json:"pulled"`
		Created int      `json:"created"`
		Dropped int      `json:"dropped"`
		Errors  []string `json:"errors"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}
	fmt.Printf("anti-entropy round on %s: %d peers, pulled %d, created %d, dropped %d\n",
		*url, st.Peers, st.Pulled, st.Created, st.Dropped)
	for _, e := range st.Errors {
		fmt.Printf("  error: %s\n", e)
	}
	return nil
}
