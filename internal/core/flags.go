package core

import (
	"flag"
	"time"
)

// WorldFlags declares the flags that name a world — -seed, -vpscale and
// -tlds — over the Config the binary starts from, which is where each
// default comes from; NewWorld or NewStudy takes the parsed Config. -tlds is
// declared only where cfg names a zone size to default it to: rootstudy's
// comes with its preset.
func WorldFlags(fs *flag.FlagSet, cfg *Config) {
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "world seed")
	fs.IntVar(&cfg.VPScale, "vpscale", cfg.VPScale, "VP population divisor")
	if cfg.TLDCount > 0 {
		fs.IntVar(&cfg.TLDCount, "tlds", cfg.TLDCount, "synthesized root zone TLD count")
	}
}

// ScheduleFlags declares the flags that say how the campaign walks its
// timeline: -scale, -start, -end, -workers and -errbudget.
func ScheduleFlags(fs *flag.FlagSet, cfg *Config) {
	fs.IntVar(&cfg.Scale, "scale", cfg.Scale, "schedule thinning factor (1 = the paper's 30/15-minute cadence)")
	date := func(into *time.Time) func(string) error {
		return func(s string) (err error) {
			*into, err = time.Parse("2006-01-02", s)
			return err
		}
	}
	fs.Func("start", "campaign start `date` (YYYY-MM-DD; default the paper's)", date(&cfg.Start))
	fs.Func("end", "campaign end `date` (YYYY-MM-DD; default the paper's)", date(&cfg.End))
	fs.IntVar(&cfg.Workers, "workers", cfg.Workers, "campaign worker goroutines (0 = one per CPU, 1 = serial; output is identical at any count)")
	fs.IntVar(&cfg.ErrorBudget, "errbudget", cfg.ErrorBudget, "degraded outcomes (recovered panics, probe errors, retried write errors) tolerated before aborting; negative = unlimited")
}
