package telemetry

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
)

// RegisterFlags declares -metrics, -trace and -telemetry-addr on fs and
// returns the start to call once fs is parsed. Registration is explicit (not
// import-time) so library consumers of telemetry never grow surprise flags.
//
// start applies the flags: any of them enables the wall-clock layer, -trace
// turns on span recording, and -telemetry-addr starts the introspection
// listener. The stop it returns writes the -metrics and -trace files, prints
// the summary table to fs.Output() (the binary's stderr), and shuts the
// listener down; defer it, so it runs on every way out of the run. With no
// flag set both start and stop are no-ops.
func RegisterFlags(fs *flag.FlagSet) (start func() (stop func(), err error)) {
	metrics := fs.String("metrics", "", "write a JSON metrics snapshot to `file` on exit")
	trace := fs.String("trace", "", "record stage spans and write a Chrome trace_event JSON to `file` on exit")
	addr := fs.String("telemetry-addr", "", "serve live /metrics JSON and /debug/pprof on `host:port`")
	return func() (func(), error) {
		if *metrics == "" && *trace == "" && *addr == "" {
			return func() {}, nil
		}
		stderr := fs.Output()
		SetEnabled(true)
		if *trace != "" {
			EnableTracing(0)
		}
		var ln net.Listener
		if *addr != "" {
			var err error
			ln, err = net.Listen("tcp", *addr)
			if err != nil {
				return nil, fmt.Errorf("telemetry: listen %s: %w", *addr, err)
			}
			srv := &http.Server{Handler: Handler()}
			go srv.Serve(ln)
			fmt.Fprintf(stderr, "telemetry: serving /metrics and /debug/pprof on http://%s\n", ln.Addr())
		}
		return func() {
			if ln != nil {
				ln.Close()
			}
			if *metrics != "" {
				if err := writeFileWith(*metrics, func(w io.Writer) error { return WriteJSON(w, ScopeAll) }); err != nil {
					fmt.Fprintf(stderr, "telemetry: metrics: %v\n", err)
				}
			}
			if *trace != "" {
				if err := writeFileWith(*trace, WriteTrace); err != nil {
					fmt.Fprintf(stderr, "telemetry: trace: %v\n", err)
				}
			}
			WriteSummary(stderr)
		}, nil
	}
}

// writeFileWith creates path and runs write against it.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
