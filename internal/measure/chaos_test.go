package measure_test

// Chaos harness for the crash-safety layer: kill the campaign at named
// failpoints, restart it from its checkpoint, and demand the recorded
// dataset come out byte-identical to an uninterrupted run — at serial and
// parallel worker counts. Also pins the worker-supervision semantics:
// panics and injected errors degrade (classified, counted) within the
// error budget and abort past it.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/failpoint"
	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/qlog"
	"repro/internal/segment"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/vantage"
)

// chaosWorld builds a small world (shared across subtests; read-only).
func chaosWorld(t *testing.T) *measure.World {
	t.Helper()
	cfg := chaosConfig()
	topoCfg := topology.Config{
		Seed: 2,
		StubsPerRegion: map[geo.Region]int{
			geo.Africa: 2, geo.Asia: 4, geo.Europe: 10,
			geo.NorthAmerica: 6, geo.SouthAmerica: 3, geo.Oceania: 3,
		},
		Tier2PerRegion: map[geo.Region]int{
			geo.Africa: 2, geo.Asia: 2, geo.Europe: 3,
			geo.NorthAmerica: 2, geo.SouthAmerica: 2, geo.Oceania: 2,
		},
	}
	vpCfg := vantage.DefaultConfig()
	vpCfg.Scale = 12
	w, err := measure.NewWorld(cfg, topoCfg, vpCfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// chaosConfig is the shared campaign shape: a fast-cadence window with
// transfers active, wire checks on, checkpointing every 3 ticks.
func chaosConfig() measure.Config {
	cfg := measure.DefaultConfig()
	cfg.Start = time.Date(2023, 9, 26, 9, 0, 0, 0, time.UTC)
	cfg.End = cfg.Start.Add(2 * time.Hour)
	cfg.Scale = 1
	cfg.TLDCount = 12
	cfg.WireCheck = true
	cfg.CheckpointEvery = 3
	return cfg
}

// runToFile executes a fresh campaign recording into path, returning the
// campaign (for accumulator assertions) and the run error.
func runToFile(t *testing.T, w *measure.World, cfg measure.Config, dataPath string) (*measure.Campaign, error) {
	t.Helper()
	return runToFileBlocks(t, w, cfg, dataPath, 0)
}

// runToFileBlocks is runToFile with the dataset writer's BlockBytes set.
func runToFileBlocks(t *testing.T, w *measure.World, cfg measure.Config, dataPath string, blockBytes int) (*measure.Campaign, error) {
	t.Helper()
	f, err := os.Create(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	wr, err := dataset.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	wr.BlockBytes = blockBytes
	c := measure.NewCampaign(cfg, w)
	runErr := c.Run(wr)
	if runErr == nil {
		if err := wr.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// On a simulated kill the writer is abandoned un-closed, as SIGKILL
	// would leave it — and as SIGKILL would have stopped the goroutine sealing
	// the block in flight, that block is waited for, sealing nothing more.
	wr.Wait()
	return c, runErr
}

// streamState seals the stream-class telemetry, the blob a checkpoint carries.
func streamState(t *testing.T) []byte {
	t.Helper()
	blob, err := telemetry.StreamState{}.CheckpointSeal()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// resumeFromCheckpoint restarts a killed recording: reopen the dataset
// without truncating it, build the same writer over it, and run a fresh
// campaign with Resume set — the campaign rewinds the writer to the sealed
// offset its checkpoint recorded.
func resumeFromCheckpoint(t *testing.T, w *measure.World, cfg measure.Config, dataPath string) *measure.Campaign {
	t.Helper()
	return resumeFromCheckpointBlocks(t, w, cfg, dataPath, 0)
}

// resumeFromCheckpointBlocks is resumeFromCheckpoint with the dataset
// writer's BlockBytes set, as the killed run had it.
func resumeFromCheckpointBlocks(t *testing.T, w *measure.World, cfg measure.Config, dataPath string, blockBytes int) *measure.Campaign {
	t.Helper()
	var progress struct {
		TickPos int `json:"tick_pos"`
	}
	if _, err := checkpoint.Load(cfg.CheckpointPath, &progress); err != nil {
		t.Fatal(err)
	}
	if progress.TickPos == 0 {
		t.Fatal("checkpoint never advanced; kill site fired before first checkpoint")
	}
	f, err := os.OpenFile(dataPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	wr, err := dataset.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	wr.BlockBytes = blockBytes
	cfg.Resume = true
	c := measure.NewCampaign(cfg, w)
	if err := c.Run(wr); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if err := wr.Close(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestChaosKillResumeMatrix is the acceptance matrix: kill sites × worker
// counts {1, 4}, each killed mid-campaign, restarted from the checkpoint, and
// compared byte-for-byte against an uninterrupted reference recording with
// the same checkpoint cadence. At 4 workers the tick after the kill has been
// computed ahead of its delivery, so the rows also pin that nothing of it
// outlives the run: not in the dataset, not in the wire accumulator, not in
// the stream counters the resume restores.
func TestChaosKillResumeMatrix(t *testing.T) {
	w := chaosWorld(t)
	dir := t.TempDir()

	// Uninterrupted references, one per cadence (checkpointing on: seal
	// boundaries are part of the byte stream).
	type reference struct {
		bytes       []byte
		wireQueries int
		// tel is the stream-class counter state an uninterrupted run ends
		// with; every kill/resume cycle must reconstruct exactly these totals
		// from the checkpoint.
		tel []byte
	}
	refs := map[int]reference{}
	for _, every := range []int{1, 3} {
		telemetry.Reset()
		refCfg := chaosConfig()
		refCfg.Workers = 1
		refCfg.CheckpointEvery = every
		refCfg.CheckpointPath = filepath.Join(dir, "ref"+string(rune('0'+every))+".ckpt")
		refData := filepath.Join(dir, "ref"+string(rune('0'+every))+".dat")
		refCampaign, err := runToFile(t, w, refCfg, refData)
		if err != nil {
			t.Fatal(err)
		}
		refBytes, err := os.ReadFile(refData)
		if err != nil {
			t.Fatal(err)
		}
		refs[every] = reference{refBytes, refCampaign.WireQueries, streamState(t)}
	}

	kills := []struct {
		name, spec string
		every      int
	}{
		// SIGKILL at a tick boundary, after a checkpoint has landed and one
		// tick past it has been delivered.
		{"tick", "campaign/tick=kill@5", 3},
		// SIGKILL at the first tick after a checkpoint: the pipeline has just
		// started again behind the boundary.
		{"tick-after-checkpoint", "campaign/tick=kill@4", 3},
		// SIGKILL after the dataset seal but before the checkpoint write:
		// resume must discard the sealed-but-uncheckpointed block.
		{"checkpoint", "campaign/checkpoint=kill@2", 3},
		// SIGKILL mid-frame: the dataset gains a torn tail that resume
		// truncates.
		{"seal-partial", "dataset/seal/partial=kill@2", 3},
		// SIGKILL at the seal entry, before any bytes move: the pending
		// block stays buffered (never written), and resume replays it.
		{"seal", "dataset/seal=kill@2", 3},
		// A checkpoint after every tick: every tick is the first after a
		// boundary and nothing may be computed ahead at all.
		{"tick-every-1", "campaign/tick=kill@5", 1},
		{"checkpoint-every-1", "campaign/checkpoint=kill@4", 1},
	}
	for _, workers := range []int{1, 4} {
		for _, kill := range kills {
			t.Run(kill.name+"/workers="+string(rune('0'+workers)), func(t *testing.T) {
				ref := refs[kill.every]
				telemetry.Reset()
				cfg := chaosConfig()
				cfg.Workers = workers
				cfg.CheckpointEvery = kill.every
				base := strings.ReplaceAll(t.Name(), "/", "_")
				cfg.CheckpointPath = filepath.Join(dir, base+".ckpt")
				dataPath := filepath.Join(dir, base+".dat")
				if err := failpoint.Enable(kill.spec); err != nil {
					t.Fatal(err)
				}
				_, runErr := runToFile(t, w, cfg, dataPath)
				failpoint.Disable()
				if !errors.Is(runErr, failpoint.ErrKilled) {
					t.Fatalf("run error = %v, want ErrKilled", runErr)
				}
				if got := telemetry.Snapshot(telemetry.ScopeAll); !firedAtLeastOneKill(got) {
					t.Error("failpoint kill did not move failpoint/fired and failpoint/kills")
				}
				killed, err := os.ReadFile(dataPath)
				if err != nil {
					t.Fatal(err)
				}
				if bytes.Equal(killed, ref.bytes) {
					t.Fatal("kill left a complete dataset; failpoint did not interrupt")
				}
				resumed := resumeFromCheckpoint(t, w, cfg, dataPath)
				got, err := os.ReadFile(dataPath)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, ref.bytes) {
					t.Errorf("resumed dataset differs from reference: %d vs %d bytes", len(got), len(ref.bytes))
				}
				if resumed.WireQueries != ref.wireQueries {
					t.Errorf("wire accumulator after resume = %d, want %d", resumed.WireQueries, ref.wireQueries)
				}
				// Counter reconstruction: the killed run polluted the stream
				// counters past the checkpoint; the resume must have restored
				// them and finished with the uninterrupted run's exact totals.
				if gotTel := streamState(t); !bytes.Equal(gotTel, ref.tel) {
					t.Errorf("stream counters after kill/resume differ from uninterrupted run:\nwant %s\ngot  %s", ref.tel, gotTel)
				}
			})
		}
	}
}

// firedAtLeastOneKill checks the failpoint firing counters in a snapshot:
// a simulated kill must increment both failpoint/fired and failpoint/kills.
func firedAtLeastOneKill(snap []telemetry.MetricValue) bool {
	fired, kills := int64(0), int64(0)
	for _, mv := range snap {
		switch mv.Name {
		case "failpoint/fired":
			fired = mv.Value
		case "failpoint/kills":
			kills = mv.Value
		}
	}
	return fired >= 1 && kills >= 1
}

// metricValue reads one metric out of a full telemetry snapshot.
func metricValue(name string) int64 {
	for _, mv := range telemetry.Snapshot(telemetry.ScopeAll) {
		if mv.Name == name {
			return mv.Value
		}
	}
	return -1
}

// TestChaosKillWithBlockInFlight is the kill matrix over a dataset writer
// whose blocks are small enough that most seals are not checkpoint fences but
// hand-offs: a goroutine is deflating and writing block k while the campaign
// delivers into block k+1. A kill at a tick boundary finds one in flight; a
// kill inside the seal tears a frame on that goroutine and surfaces at the
// next checkpoint. Either way, once the run has returned and the block in
// flight has been waited for, neither the file nor dataset/blocks_sealed
// moves, and the resume is byte-identical with the uninterrupted run's stream
// counters.
func TestChaosKillWithBlockInFlight(t *testing.T) {
	const blockBytes = 16 << 10
	const tornFrame = 20
	w := chaosWorld(t)
	dir := t.TempDir()

	telemetry.Reset()
	refCfg := chaosConfig()
	refCfg.Workers = 1
	refCfg.CheckpointPath = filepath.Join(dir, "ref.ckpt")
	refData := filepath.Join(dir, "ref.dat")
	if _, err := runToFileBlocks(t, w, refCfg, refData, blockBytes); err != nil {
		t.Fatal(err)
	}
	refBytes, err := os.ReadFile(refData)
	if err != nil {
		t.Fatal(err)
	}
	refTel := streamState(t)
	// A frame that inflates to blockBytes or more was sealed by the hand-off:
	// a checkpoint fence seals what is pending, which is less. The frame the
	// seal-partial rows tear must be one, behind the first checkpoint.
	version, _ := binary.Uvarint(refBytes[len("RGDS"):])
	sr, err := segment.NewReader(bytes.NewReader(refBytes), "RGDS", version)
	if err != nil {
		t.Fatal(err)
	}
	fences := 0
	for i := 1; i <= tornFrame; i++ {
		fr, err := sr.NextFrame()
		if err != nil {
			t.Fatalf("reference frame %d: %v", i, err)
		}
		payload, err := segment.Decompress(fr)
		if err != nil {
			t.Fatal(err)
		}
		if len(payload) < blockBytes {
			fences++
		}
		if i == tornFrame && (len(payload) < blockBytes || fences == 0) {
			t.Fatalf("frame %d inflates to %d bytes after %d checkpoint fences: not a hand-off behind a checkpoint", i, len(payload), fences)
		}
	}

	for _, workers := range []int{1, 4} {
		for _, spec := range []string{"campaign/tick=kill@5", "dataset/seal/partial=kill@" + strconv.Itoa(tornFrame)} {
			t.Run(strings.ReplaceAll(spec, "/", "_")+"/workers="+strconv.Itoa(workers), func(t *testing.T) {
				telemetry.Reset()
				cfg := chaosConfig()
				cfg.Workers = workers
				base := strings.ReplaceAll(t.Name(), "/", "_")
				cfg.CheckpointPath = filepath.Join(dir, base+".ckpt")
				dataPath := filepath.Join(dir, base+".dat")
				if err := failpoint.Enable(spec); err != nil {
					t.Fatal(err)
				}
				_, runErr := runToFileBlocks(t, w, cfg, dataPath, blockBytes)
				failpoint.Disable()
				if !errors.Is(runErr, failpoint.ErrKilled) {
					t.Fatalf("run error = %v, want ErrKilled", runErr)
				}
				killed, err := os.ReadFile(dataPath)
				if err != nil {
					t.Fatal(err)
				}
				sealed := metricValue("dataset/blocks_sealed")
				for i := 0; i < 1000; i++ {
					runtime.Gosched()
				}
				later, err := os.ReadFile(dataPath)
				if err != nil {
					t.Fatal(err)
				}
				if now := metricValue("dataset/blocks_sealed"); now != sealed || !bytes.Equal(later, killed) {
					t.Errorf("after the killed run returned: dataset/blocks_sealed %d → %d, file %d → %d bytes", sealed, now, len(killed), len(later))
				}
				if bytes.Equal(killed, refBytes) {
					t.Fatal("kill left a complete dataset; failpoint did not interrupt")
				}
				resumeFromCheckpointBlocks(t, w, cfg, dataPath, blockBytes)
				got, err := os.ReadFile(dataPath)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, refBytes) {
					t.Errorf("resumed dataset differs from reference: %d vs %d bytes", len(got), len(refBytes))
				}
				if gotTel := streamState(t); !bytes.Equal(gotTel, refTel) {
					t.Errorf("stream counters after kill/resume differ from uninterrupted run:\nwant %s\ngot  %s", refTel, gotTel)
				}
			})
		}
	}
}

// qlogRunToFile executes a fresh campaign recording the dataset into dataPath
// and a full-rate flight log into qlogPath, with the black-box ring dumping
// to blackboxPath on a kill. Like runToFile, a killed run abandons both
// writers un-closed, as SIGKILL would.
func qlogRunToFile(t *testing.T, w *measure.World, cfg measure.Config, dataPath, qlogPath, blackboxPath string) error {
	t.Helper()
	df, err := os.Create(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	wr, err := dataset.NewWriter(df)
	if err != nil {
		t.Fatal(err)
	}
	qf, err := os.Create(qlogPath)
	if err != nil {
		t.Fatal(err)
	}
	defer qf.Close()
	rec, err := qlog.New(qf, qlog.Sampler{Every: 1}, blackboxPath)
	if err != nil {
		t.Fatal(err)
	}
	c := measure.NewCampaign(cfg, w)
	runErr := c.Run(wr, measure.NewFlightLog(rec))
	if runErr == nil {
		if err := wr.Close(); err != nil {
			t.Fatal(err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
	wr.Wait() // see runToFileBlocks
	rec.Wait()
	return runErr
}

// TestChaosQlogKillResume extends the kill matrix to the flight recorder's
// own seal site: SIGKILL inside the flight log's CheckpointSeal, at worker
// counts {1, 4}. The dying run must leave a black-box ring dump that decodes
// as a qlog segment, and the resumed recording must reproduce the
// uninterrupted reference flight log byte-for-byte.
func TestChaosQlogKillResume(t *testing.T) {
	w := chaosWorld(t)
	dir := t.TempDir()

	qlog.ResetBlackbox()
	refCfg := chaosConfig()
	refCfg.CheckpointPath = filepath.Join(dir, "ref.ckpt")
	refQlog := filepath.Join(dir, "ref.qlog")
	if err := qlogRunToFile(t, w, refCfg, filepath.Join(dir, "ref.dat"), refQlog, ""); err != nil {
		t.Fatal(err)
	}
	refBytes, err := os.ReadFile(refQlog)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		t.Run("workers="+string(rune('0'+workers)), func(t *testing.T) {
			qlog.ResetBlackbox()
			cfg := chaosConfig()
			cfg.Workers = workers
			base := strings.ReplaceAll(t.Name(), "/", "_")
			cfg.CheckpointPath = filepath.Join(dir, base+".ckpt")
			dataPath := filepath.Join(dir, base+".dat")
			qlogPath := filepath.Join(dir, base+".qlog")
			bbPath := filepath.Join(dir, base+".blackbox")
			// SIGKILL at the flight recorder's second checkpoint seal: the
			// dataset block has already sealed, the checkpoint has not been
			// written, and the recorder's pending block never reaches disk.
			if err := failpoint.Enable("qlog/seal=kill@2"); err != nil {
				t.Fatal(err)
			}
			runErr := qlogRunToFile(t, w, cfg, dataPath, qlogPath, bbPath)
			failpoint.Disable()
			if !errors.Is(runErr, failpoint.ErrKilled) {
				t.Fatalf("run error = %v, want ErrKilled", runErr)
			}

			// The crash artifact: a black-box dump that any qlog reader can
			// decode, holding the recent flight history.
			bbf, err := os.Open(bbPath)
			if err != nil {
				t.Fatalf("black-box dump missing after kill: %v", err)
			}
			br, err := qlog.NewReader(bbf)
			if err != nil {
				t.Fatalf("black-box dump is not a qlog segment: %v", err)
			}
			bbEvs, err := br.Events()
			bbf.Close()
			if err != nil {
				t.Fatalf("black-box dump does not decode: %v", err)
			}
			if len(bbEvs) == 0 {
				t.Error("black-box dump is empty; the ring held recorded events at the kill")
			}

			// Resume both durable handlers: the same writer and recorder over
			// the untruncated files; the campaign rewinds each to the sealed
			// offset its checkpoint recorded.
			df, err := os.OpenFile(dataPath, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer df.Close()
			wr, err := dataset.NewWriter(df)
			if err != nil {
				t.Fatal(err)
			}
			qf, err := os.OpenFile(qlogPath, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer qf.Close()
			rec, err := qlog.New(qf, qlog.Sampler{Every: 1}, bbPath)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Resume = true
			c := measure.NewCampaign(cfg, w)
			if err := c.Run(wr, measure.NewFlightLog(rec)); err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if err := wr.Close(); err != nil {
				t.Fatal(err)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(qlogPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, refBytes) {
				t.Errorf("resumed flight log differs from reference: %d vs %d bytes", len(got), len(refBytes))
			}
		})
	}
}

// TestSealErrorRetriedWithinBudget injects a one-shot dataset write error at
// the checkpoint seal: the campaign must count it, retry, complete, and
// still produce the reference bytes.
func TestSealErrorRetriedWithinBudget(t *testing.T) {
	w := chaosWorld(t)
	dir := t.TempDir()

	refCfg := chaosConfig()
	refCfg.CheckpointPath = filepath.Join(dir, "ref.ckpt")
	refData := filepath.Join(dir, "ref.dat")
	if _, err := runToFile(t, w, refCfg, refData); err != nil {
		t.Fatal(err)
	}
	refBytes, _ := os.ReadFile(refData)

	telemetry.Reset()
	cfg := chaosConfig()
	cfg.CheckpointPath = filepath.Join(dir, "chaos.ckpt")
	cfg.ErrorBudget = 1
	dataPath := filepath.Join(dir, "chaos.dat")
	if err := failpoint.Enable("dataset/seal=error@1"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable()
	c, err := runToFile(t, w, cfg, dataPath)
	if err != nil {
		t.Fatalf("within-budget seal error aborted the run: %v", err)
	}
	if stats := c.Degraded(); stats.WriteErrors != 1 || stats.Total() != 1 {
		t.Errorf("degraded stats = %+v, want exactly one write error", stats)
	}
	// A non-kill firing moves failpoint/fired but not failpoint/kills, and
	// the salvaged outcome lands in campaign/degraded.
	for _, mv := range telemetry.Snapshot(telemetry.ScopeAll) {
		switch mv.Name {
		case "failpoint/fired":
			if mv.Value != 1 {
				t.Errorf("failpoint/fired = %d, want 1", mv.Value)
			}
		case "failpoint/kills":
			if mv.Value != 0 {
				t.Errorf("failpoint/kills = %d, want 0", mv.Value)
			}
		case "campaign/degraded":
			if mv.Value != 1 {
				t.Errorf("campaign/degraded = %d, want 1", mv.Value)
			}
		}
	}
	got, _ := os.ReadFile(dataPath)
	if !bytes.Equal(got, refBytes) {
		t.Error("retried seal produced different bytes")
	}
}

// TestSealErrorExceedsBudget: with a zero budget the same injected error
// aborts with the summarized budget error.
func TestSealErrorExceedsBudget(t *testing.T) {
	w := chaosWorld(t)
	dir := t.TempDir()
	cfg := chaosConfig()
	cfg.CheckpointPath = filepath.Join(dir, "chaos.ckpt")
	cfg.ErrorBudget = 0
	if err := failpoint.Enable("dataset/seal=error@1"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable()
	_, err := runToFile(t, w, cfg, filepath.Join(dir, "chaos.dat"))
	if err == nil || !strings.Contains(err.Error(), "error budget exceeded") {
		t.Fatalf("run error = %v, want summarized budget abort", err)
	}
}

// collectorT mirrors the internal test collector for the external package.
type collectorT struct {
	probes    []measure.ProbeEvent
	transfers []measure.TransferEvent
}

func (c *collectorT) HandleProbe(e measure.ProbeEvent)       { c.probes = append(c.probes, e) }
func (c *collectorT) HandleTransfer(e measure.TransferEvent) { c.transfers = append(c.transfers, e) }

// TestWorkerPanicDegradesWithinBudget: an injected worker panic is recovered
// and surfaces as exactly one classified Lost+Degraded probe (and its
// transfer), with the campaign completing normally.
func TestWorkerPanicDegradesWithinBudget(t *testing.T) {
	w := chaosWorld(t)
	cfg := chaosConfig()
	cfg.WireCheck = false
	cfg.Workers = 4
	cfg.ErrorBudget = -1
	if err := failpoint.Enable("measure/worker/probe=panic@17"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable()
	c := measure.NewCampaign(cfg, w)
	col := &collectorT{}
	if err := c.Run(col); err != nil {
		t.Fatalf("panic within unlimited budget aborted: %v", err)
	}
	stats := c.Degraded()
	if stats.ProbePanics != 1 || stats.Total() != 1 {
		t.Fatalf("degraded stats = %+v, want one recovered probe panic", stats)
	}
	if len(stats.Samples) != 1 || !strings.Contains(stats.Samples[0], "probe panic") {
		t.Fatalf("samples = %v", stats.Samples)
	}
	degProbes := 0
	for _, p := range col.probes {
		if p.Degraded {
			degProbes++
			if !p.Lost {
				t.Error("degraded probe not marked lost")
			}
		}
	}
	if degProbes != 1 {
		t.Fatalf("degraded probes = %d, want 1", degProbes)
	}
	degTransfers := 0
	for _, tr := range col.transfers {
		if tr.Degraded {
			degTransfers++
			if !tr.Lost {
				t.Error("degraded transfer not marked lost")
			}
		}
	}
	if degTransfers != 1 {
		t.Fatalf("degraded transfers = %d, want 1 (probe-stage fault spoils the pair)", degTransfers)
	}
}

// TestWorkerTransferErrorKeepsProbe: a transfer-stage injected error
// degrades only the transfer; the probe half of the pair survives intact.
func TestWorkerTransferErrorKeepsProbe(t *testing.T) {
	w := chaosWorld(t)
	cfg := chaosConfig()
	cfg.WireCheck = false
	cfg.ErrorBudget = 2
	if err := failpoint.Enable("measure/worker/transfer=error@9"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable()
	c := measure.NewCampaign(cfg, w)
	col := &collectorT{}
	if err := c.Run(col); err != nil {
		t.Fatal(err)
	}
	if stats := c.Degraded(); stats.TransferErrors != 1 || stats.Total() != 1 {
		t.Fatalf("degraded stats = %+v", stats)
	}
	for _, p := range col.probes {
		if p.Degraded {
			t.Fatal("transfer-stage error degraded a probe")
		}
	}
	deg := 0
	for _, tr := range col.transfers {
		if tr.Degraded {
			deg++
		}
	}
	if deg != 1 {
		t.Fatalf("degraded transfers = %d, want 1", deg)
	}
}

// TestWorkerErrorExceedsBudget: with budget 0, the first degraded outcome
// aborts the campaign with the summarized classification.
func TestWorkerErrorExceedsBudget(t *testing.T) {
	w := chaosWorld(t)
	cfg := chaosConfig()
	cfg.WireCheck = false
	cfg.ErrorBudget = 0
	if err := failpoint.Enable("measure/worker/probe=error@3"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable()
	err := measure.NewCampaign(cfg, w).Run(&collectorT{})
	if err == nil || !strings.Contains(err.Error(), "error budget exceeded") {
		t.Fatalf("run error = %v, want budget abort", err)
	}
	if !strings.Contains(err.Error(), "1 probe errors") {
		t.Fatalf("abort not classified: %v", err)
	}
}

// TestResumeRejectsMismatchedConfig: a checkpoint from one campaign must not
// seed a differently configured one.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	w := chaosWorld(t)
	dir := t.TempDir()
	cfg := chaosConfig()
	cfg.WireCheck = false
	cfg.CheckpointPath = filepath.Join(dir, "a.ckpt")
	if _, err := runToFile(t, w, cfg, filepath.Join(dir, "a.dat")); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Resume = true
	bad.Seed++
	err := measure.NewCampaign(bad, w).Run(&collectorT{})
	if err == nil || !strings.Contains(err.Error(), "differently configured") {
		t.Fatalf("mismatched resume error = %v", err)
	}
	// So is another checkpoint cadence: every checkpoint seals a dataset
	// block, so the resumed file would frame its blocks like neither run.
	bad = cfg
	bad.Resume = true
	bad.CheckpointEvery++
	err = measure.NewCampaign(bad, w).Run(&collectorT{})
	if !errors.Is(err, checkpoint.ErrSig) || !strings.Contains(err.Error(), "every=3 vs run ") || !strings.HasSuffix(err.Error(), "every=4") {
		t.Fatalf("cadence-mismatched resume error = %v, want checkpoint.ErrSig naming both cadences", err)
	}
	// And another handler list: the checkpoint carries the dataset writer's
	// state, which a run without a writer cannot restore.
	ok := cfg
	ok.Resume = true
	ok.Workers = 4
	err = measure.NewCampaign(ok, w).Run(&collectorT{})
	if !errors.Is(err, checkpoint.ErrParts) {
		t.Fatalf("resume without the writer: error = %v, want checkpoint.ErrParts", err)
	}
	// Worker count is allowed to change across a resume.
	f, err := os.OpenFile(filepath.Join(dir, "a.dat"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	wr, err := dataset.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := measure.NewCampaign(ok, w).Run(wr, &collectorT{}); err != nil {
		t.Fatalf("worker-count change rejected on resume: %v", err)
	}
}

// TestResumeRequiresCheckpointPath pins the config validation.
func TestResumeRequiresCheckpointPath(t *testing.T) {
	w := chaosWorld(t)
	cfg := chaosConfig()
	cfg.Resume = true
	err := measure.NewCampaign(cfg, w).Run(&collectorT{})
	if err == nil || !strings.Contains(err.Error(), "CheckpointPath") {
		t.Fatalf("err = %v", err)
	}
}
