package dataset

import (
	"bytes"
	"compress/flate"
	"strconv"
	"testing"
	"time"

	"repro/internal/measure"
	"repro/internal/segment"
)

// benchmarkReplay replays one pre-recorded mixed stream end to end. The
// recording is built once outside the timer; each iteration pays for frame
// scan, CRC, inflate, record decode, and handler dispatch — the whole
// rootanalyze ingest path. events/op is reported so qps falls out of ns/op
// without knowing the stream composition.
func benchmarkReplay(b *testing.B, workers int) {
	const n = 20000
	data := writeMixedFile(b, n, 8<<10)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	events := 0
	for i := 0; i < b.N; i++ {
		r, err := NewReader(bytes.NewReader(data), synthPop())
		if err != nil {
			b.Fatal(err)
		}
		var h countingHandler
		probes, transfers, err := r.ReplayWith(ReplayOptions{Workers: workers}, &h)
		if err != nil {
			b.Fatal(err)
		}
		if r.Torn() {
			b.Fatalf("benchmark stream torn: %v", r.TornReason())
		}
		events = probes + transfers
	}
	b.ReportMetric(float64(events), "events/op")
}

func BenchmarkReplayDecodeSerial(b *testing.B)    { benchmarkReplay(b, 1) }
func BenchmarkReplayDecodeParallel4(b *testing.B) { benchmarkReplay(b, 4) }
func BenchmarkReplayDecodeParallel8(b *testing.B) { benchmarkReplay(b, 8) }

// BenchmarkSealLevels re-deflates the blocks of a recorded campaign (about
// 120,000 events in default-size blocks) at Huffman-only and at levels 1 to
// 6 — segment.Writer seals at 2, flate.DefaultCompression is 6 — each on
// one reused compressor, as the writer does. B/event is what the dataset
// would weigh and ns/event what sealing it would cost; raw-B/event is the
// undeflated record stream. On version-4 records (7.4 raw B/event, three
// runs on two vCPUs) level 2 weighs 3.16 B/event at 152–169 ns, level 1
// 3.48 at 113–140 and level 5 2.89 at 210–227; version 3's records (23.2
// raw B/event) weighed 5.32 at level 5, at 718–745 ns in runs beside those.
// The table is the prediction a change of format or level has to beat.
func BenchmarkSealLevels(b *testing.B) {
	cfg := measure.DefaultConfig()
	cfg.Start = time.Date(2023, 10, 1, 0, 0, 0, 0, time.UTC)
	cfg.End = time.Date(2023, 12, 23, 0, 0, 0, 0, time.UTC)
	cfg.TLDCount = 10
	var file bytes.Buffer
	writer, err := NewWriter(&file)
	if err != nil {
		b.Fatal(err)
	}
	if err := measure.NewCampaign(cfg, testWorld(b)).Run(writer); err != nil {
		b.Fatal(err)
	}
	if err := writer.Close(); err != nil {
		b.Fatal(err)
	}
	events := float64(writer.Probes + writer.Transfers)
	sr, err := segment.NewReader(bytes.NewReader(file.Bytes()), magic, version)
	if err != nil {
		b.Fatal(err)
	}
	var blocks [][]byte
	raw := 0
	for f, err := sr.NextFrame(); err == nil; f, err = sr.NextFrame() {
		block, err := segment.Decompress(f)
		if err != nil {
			b.Fatal(err)
		}
		blocks, raw = append(blocks, block), raw+len(block)
	}
	for _, level := range []int{flate.HuffmanOnly, 1, 2, 3, 4, 5, 6} {
		name := "huffman"
		if level > 0 {
			name = "level" + strconv.Itoa(level)
		}
		b.Run(name, func(b *testing.B) {
			var out bytes.Buffer
			zw, err := flate.NewWriter(&out, level)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out.Reset()
				for _, block := range blocks {
					zw.Reset(&out)
					if _, err := zw.Write(block); err != nil {
						b.Fatal(err)
					}
					if err := zw.Close(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(out.Len())/events, "B/event")
			b.ReportMetric(float64(raw)/events, "raw-B/event")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/events, "ns/event")
		})
	}
}
