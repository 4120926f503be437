// Command cadbench regenerates the tables and figures of the paper's
// evaluation (see DESIGN.md §3 for the experiment index).
//
// Usage:
//
//	cadbench -exp table1|table2|fig2|fig3|fig4|fig5|fig6|verbatim|scale|
//	              ablation|distance|enron|dblp|precip|all [flags]
//
// The quantitative experiments accept -n, -trials, -k and -seed so you
// can trade fidelity against runtime; the defaults are sized to finish
// in minutes on a laptop, and the paper-scale settings are reachable by
// flag (e.g. -exp fig6 -n 2000 -trials 100).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"dyngraph/internal/asciiplot"
	"dyngraph/internal/datagen"
	"dyngraph/internal/experiments"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// benchConfig carries the parsed flags into run.
type benchConfig struct {
	n, trials, k  int
	seed          int64
	sizes, family string
	detail, plot  bool
	out           io.Writer
}

// realMain is the program behind the flag plumbing, factored out for
// end-to-end tests with in-memory streams.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cadbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp    = fs.String("exp", "all", "experiment id: table1, table2, fig2, fig3, fig4, fig5, fig6, verbatim, scale, ablation, distance, enron, dblp, precip, or all")
		n      = fs.Int("n", 500, "synthetic GMM size for fig5/fig6 (paper: 2000)")
		trials = fs.Int("trials", 10, "realizations to average for fig5/fig6 (paper: 100)")
		k      = fs.Int("k", 50, "commute-embedding dimension")
		seed   = fs.Int64("seed", 1, "master random seed")
		sizes  = fs.String("sizes", "", "comma-separated n values for -exp scale (default 1000,5000,20000,50000)")
		detail = fs.Bool("detail", false, "print per-transition / per-year detail tables")
		family = fs.String("family", "uniform", "graph family for -exp scale: uniform, preferential or smallworld")
		plot   = fs.Bool("plot", false, "render ASCII charts alongside the tables (fig6 ROC, enron timeline)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = []string{"table1", "table2", "fig2", "fig3", "fig4", "fig5", "fig6", "verbatim", "scale", "ablation", "distance", "enron", "dblp", "precip"}
	}
	cfg := benchConfig{
		n: *n, trials: *trials, k: *k, seed: *seed,
		sizes: *sizes, family: *family, detail: *detail, plot: *plot,
		out: stdout,
	}
	for _, id := range ids {
		if err := run(id, cfg); err != nil {
			fmt.Fprintf(stderr, "cadbench: %s: %v\n", id, err)
			return 1
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

func run(id string, cfg benchConfig) error {
	n, trials, k, seed := cfg.n, cfg.trials, cfg.k, cfg.seed
	sizes, family, detail := cfg.sizes, cfg.family, cfg.detail
	switch id {
	case "table1":
		res, err := experiments.Table1()
		if err != nil {
			return err
		}
		return res.Table().Fprint(cfg.out)
	case "table2":
		res, err := experiments.Table2()
		if err != nil {
			return err
		}
		return res.Table().Fprint(cfg.out)
	case "fig2":
		res, err := experiments.Fig2()
		if err != nil {
			return err
		}
		return res.Table().Fprint(cfg.out)
	case "fig3":
		res, err := experiments.Fig3()
		if err != nil {
			return err
		}
		if err := res.Table().Fprint(cfg.out); err != nil {
			return err
		}
		cad, act := res.ResponsibleSeparation()
		fmt.Fprintf(cfg.out, "separation (min responsible / max other): CAD %.2f, ACT %.2f\n", cad, act)
		return nil
	case "fig4":
		res, err := experiments.Fig4(n, seed, 0)
		if err != nil {
			return err
		}
		if err := res.Table().Fprint(cfg.out); err != nil {
			return err
		}
		if cfg.plot {
			xs := make([]float64, len(res.Inst.Points))
			ys := make([]float64, len(res.Inst.Points))
			for i, p := range res.Inst.Points {
				xs[i], ys[i] = p[0], p[1]
			}
			scatter, err := asciiplot.Scatter(xs, ys, res.Inst.Cluster, 64, 20)
			if err != nil {
				return err
			}
			fmt.Fprintln(cfg.out, "Figure 4a: mixture realization (marker = component):")
			fmt.Fprint(cfg.out, scatter)
			heat, err := asciiplot.Heatmap(res.Blocks)
			if err != nil {
				return err
			}
			fmt.Fprintln(cfg.out, "Figure 4b: cluster-ordered adjacency (block structure):")
			fmt.Fprint(cfg.out, heat)
		}
		return nil
	case "fig5":
		res, err := experiments.Fig5(experiments.SyntheticConfig{N: n, Trials: trials, K: k, Seed: seed}, nil)
		if err != nil {
			return err
		}
		return res.Table().Fprint(cfg.out)
	case "fig6":
		res, err := experiments.Fig6(experiments.SyntheticConfig{N: n, Trials: trials, K: k, Seed: seed})
		if err != nil {
			return err
		}
		if err := res.Table().Fprint(cfg.out); err != nil {
			return err
		}
		if cfg.plot {
			var series []asciiplot.Series
			for _, m := range experiments.Methods() {
				s := asciiplot.Series{Name: m}
				for _, p := range res.Curves[m] {
					s.X = append(s.X, p.FPR)
					s.Y = append(s.Y, p.TPR)
				}
				series = append(series, s)
			}
			chart, err := asciiplot.Lines(series, 64, 18)
			if err != nil {
				return err
			}
			fmt.Fprintln(cfg.out, chart)
		}
		return nil
	case "verbatim":
		res, err := experiments.Fig6Verbatim(experiments.SyntheticConfig{N: n, Trials: trials, K: k, Seed: seed})
		if err != nil {
			return err
		}
		return res.Table().Fprint(cfg.out)
	case "ablation":
		res, err := experiments.Ablation(experiments.AblationConfig{Seed: seed})
		if err != nil {
			return err
		}
		return res.Table().Fprint(cfg.out)
	case "distance":
		res, err := experiments.DistanceAblation(experiments.SyntheticConfig{N: n, Trials: trials, Seed: seed})
		if err != nil {
			return err
		}
		return res.Table().Fprint(cfg.out)
	case "scale":
		fam, err := datagen.ParseFamily(family)
		if err != nil {
			return err
		}
		scfg := experiments.ScaleConfig{K: 10, Seed: seed, Family: fam}
		if scfg.Sizes, err = parseSizes(sizes); err != nil {
			return err
		}
		res, err := experiments.Scale(scfg)
		if err != nil {
			return err
		}
		if err := res.Table().Fprint(cfg.out); err != nil {
			return err
		}
		// The paper's CLC stress case: m = 10n.
		scfg.EdgesPerNode = 10
		if len(scfg.Sizes) > 2 {
			scfg.Sizes = scfg.Sizes[:2]
		}
		res10, err := experiments.Scale(scfg)
		if err != nil {
			return err
		}
		return res10.Table().Fprint(cfg.out)
	case "enron":
		res, err := experiments.Enron(experiments.EnronConfig{Seed: seed})
		if err != nil {
			return err
		}
		if err := res.SummaryTable().Fprint(cfg.out); err != nil {
			return err
		}
		if detail {
			if err := res.Table().Fprint(cfg.out); err != nil {
				return err
			}
		}
		if cfg.plot {
			labels := make([]string, len(res.Report.Transitions))
			values := make([]float64, len(res.Report.Transitions))
			for i, tr := range res.Report.Transitions {
				labels[i] = fmt.Sprintf("tr %d", tr.T)
				values[i] = float64(len(tr.Nodes))
			}
			bars, err := asciiplot.Bars(labels, values, 40)
			if err != nil {
				return err
			}
			fmt.Fprintln(cfg.out, "CAD anomalous nodes per transition (Figure 7 analog):")
			fmt.Fprint(cfg.out, bars)

			// Figure 8a analog: the CEO analog's monthly email volume.
			mLabels := make([]string, len(res.CEOMonthlyVolume))
			for i := range mLabels {
				mLabels[i] = fmt.Sprintf("month %d", i)
			}
			hist, err := asciiplot.Bars(mLabels, res.CEOMonthlyVolume, 40)
			if err != nil {
				return err
			}
			fmt.Fprintln(cfg.out, "\nCEO-analog email volume per month (Figure 8a analog):")
			fmt.Fprint(cfg.out, hist)
		}
		return nil
	case "dblp":
		res, err := experiments.DBLP(experiments.DBLPConfig{K: k, Seed: seed})
		if err != nil {
			return err
		}
		return res.Table().Fprint(cfg.out)
	case "precip":
		res, err := experiments.Precip(experiments.PrecipConfig{K: k, Seed: seed})
		if err != nil {
			return err
		}
		if err := res.Table().Fprint(cfg.out); err != nil {
			return err
		}
		if detail {
			return res.DiffTable().Fprint(cfg.out)
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
}

// parseSizes turns a comma-separated -sizes flag into a slice; an empty
// flag returns nil so the experiment's defaults apply.
func parseSizes(sizes string) ([]int, error) {
	if sizes == "" {
		return nil, nil
	}
	var out []int
	for _, s := range strings.Split(sizes, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("bad -sizes entry %q: %v", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}
