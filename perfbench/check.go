package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cloudvar/internal/fleet"
	"cloudvar/internal/store"
)

// defaultSeed is the paper's arXiv id, cmd/reproduce's default seed.
const defaultSeed = 1912_09256

// outputs maps an output's name to the SHA-256 digest of its bytes.
type outputs map[string]string

// recorded holds, per workload, the output digests of the default
// seed, recorded from the unchanged program with --record-digests.
//
//go:embed digests.json
var recordedJSON []byte

func recordedOutputs(workload string, seed uint64) (outputs, bool) {
	if seed != defaultSeed {
		return nil, false
	}
	var all map[string]outputs
	if err := json.Unmarshal(recordedJSON, &all); err != nil {
		panic(fmt.Sprintf("perfbench: embedded digests.json: %v", err))
	}
	o, ok := all[workload]
	return o, ok
}

// recordDigests prints the default seed's outputs of every workload,
// in the format digests.json holds.
func recordDigests(stdout, stderr io.Writer) int {
	all := make(map[string]outputs)
	for _, name := range []string{"artifacts", "campaign", "distributed"} {
		dir := workDir + "/" + name
		b, err := newBench(name, defaultSeed, dir)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		os.RemoveAll(dir)
		c := &checker{log: stderr}
		fx, err := b.setup(0)
		if err == nil {
			_, err = fx.run()
			if err == nil {
				all[name] = fx.outputs(c)
			}
			fx.close()
		}
		os.RemoveAll(dir)
		if err != nil || c.failed > 0 {
			fmt.Fprintf(stderr, "perfbench: recording %s failed: %v\n", name, err)
			return 1
		}
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// checker counts operations (artifacts, cells, output checks) and
// the ones that failed; every failure is explained on log.
type checker struct {
	log               io.Writer
	attempted, failed int
}

// op counts one operation, failed when err is non-nil.
func (c *checker) op(what string, err error) {
	c.attempted++
	if err != nil {
		c.failed++
		fmt.Fprintf(c.log, "perfbench: %s: %v\n", what, err)
	}
}

// same counts one output check.
func (c *checker) same(what, got, want string) {
	var err error
	if got != want {
		err = fmt.Errorf("digest %.12s, want %.12s", got, want)
	}
	c.op("output "+what, err)
}

// compare checks every wanted output against got.
func (c *checker) compare(got, want outputs) {
	for _, k := range sortedKeys(want) {
		g, ok := got[k]
		if !ok {
			c.op("output "+k, fmt.Errorf("missing"))
			continue
		}
		c.same(k, g, want[k])
	}
}

// reference checks the first pass's outputs against the recorded
// digests when the seed has them, and returns what later passes
// must reproduce.
func (c *checker) reference(workload string, seed uint64, got outputs) outputs {
	if want, ok := recordedOutputs(workload, seed); ok {
		c.compare(got, want)
		return want
	}
	return got
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digestFile digests a file's bytes; a read error is its own digest,
// so it can never match a recorded one.
func digestFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unreadable: " + err.Error()
	}
	return digest(b)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS record of this process
// (Linux clear_refs value 5), so peakRSSMB covers only what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size since the last
// resetPeakRSS (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM line")
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocBytes is the cumulative heap allocation of the process.
func allocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// resultDigest digests a campaign result: every cell's label, error,
// summary, series and workload metrics, and every group's aggregates
// and precision. Floats print in their shortest exact form.
func resultDigest(res fleet.CampaignResult) string {
	h := sha256.New()
	for _, c := range res.Cells {
		fmt.Fprintf(h, "cell %s|%v|%+v\n", c.Cell.Label(), c.Err, c.Summary)
		if c.Series != nil {
			fmt.Fprintf(h, "series %v|%v\n", c.Series.IntervalSec, c.Series.Points)
		}
		if c.Workload != nil {
			fmt.Fprintf(h, "workload %+v\n", *c.Workload)
		}
	}
	for _, g := range res.Groups {
		r := g.Result
		fmt.Fprintf(h, "group %s/%s/%s|%d|%v|%+v|%+v|%v|%v\n",
			g.Cloud, g.Instance, g.Regime, g.Failed, r.Samples, r.Summary, r.MedianCI, r.MedianCIErr, r.Converged)
		if g.Precision != nil {
			fmt.Fprintf(h, "precision %+v\n", *g.Precision)
		}
		for _, cl := range g.Classes {
			fmt.Fprintf(h, "class %s|%d|%v|%+v\n", cl.Class, cl.Requests, cl.Result.Samples, cl.Result.Summary)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// resultRecords converts a result's successful cells to the records a
// store persists for them.
func resultRecords(res fleet.CampaignResult) ([]store.CellRecord, error) {
	var out []store.CellRecord
	for _, c := range res.Cells {
		if c.Err != nil {
			continue
		}
		rec, err := store.NewCellRecord(c)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// recordsDigest digests cell records in label order, so the digest
// does not depend on the order a store appended them.
func recordsDigest(recs []store.CellRecord) string {
	sorted := append([]store.CellRecord(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Label < sorted[j].Label })
	h := sha256.New()
	for _, rec := range sorted {
		b, err := json.Marshal(rec)
		if err != nil {
			return "unencodable: " + err.Error()
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
