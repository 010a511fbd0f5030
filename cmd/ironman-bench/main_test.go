package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"ironman/internal/experiments"
)

// Two stand-in experiments: the CLI's contract is with the table's
// shape, not with the simulators behind the real one.
var fake = []experiments.Experiment{
	{Name: "ok", Desc: "always works", Run: func(quick bool) (experiments.Result, error) {
		return experiments.Result{
			Rows:     []int{1, 2},
			Text:     "OK table\n",
			Headline: experiments.Headline{Metric: "x", Value: 1.5, Paper: "2x"},
		}, nil
	}},
	{Name: "broken", Desc: "always fails", Run: func(bool) (experiments.Result, error) {
		return experiments.Result{}, errors.New("simulator exploded")
	}},
}

func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name        string
		args        []string
		code        int
		out, errOut string // substrings
	}{
		{"list", []string{"-exp", "list"}, 0, "ok\talways works\nbroken\talways fails\n", ""},
		{"rendered", []string{"-exp", "ok"}, 0, "OK table\n  headline: x = 1.5 (paper: 2x)\n", ""},
		{"unknown name", []string{"-exp", "ok,nope"}, 2, "", `unknown experiment "nope" (valid: all ok broken list)`},
		{"empty selection", []string{"-exp", ","}, 2, "", "no experiment selected"},
		{"failing run", []string{"-exp", "all"}, 1, "OK table\n", "broken: simulator exploded\n"},
		{"bad flag", []string{"-backend", "ferret"}, 2, "", "flag provided but not defined"},
		{"price", []string{"-price", "Cheetah,ResNet50,lan,cpu"}, 0, "Cheetah / ResNet50 on LAN(3Gbps,0.15ms) with OT backend CPU(4 threads)\n", ""},
		{"price unknown framework", []string{"-price", "Delphi,ResNet50,lan,cpu"}, 2, "", `unknown framework "Delphi"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(fake, tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%s: exit %d, want %d (stderr %q)", tc.name, code, tc.code, stderr.String())
		}
		if !strings.Contains(stdout.String(), tc.out) || !strings.Contains(stderr.String(), tc.errOut) {
			t.Errorf("%s: stdout %q / stderr %q, want %q / %q", tc.name, stdout.String(), stderr.String(), tc.out, tc.errOut)
		}
		if strings.Contains(stderr.String(), "goroutine ") {
			t.Errorf("%s: stack trace on stderr: %q", tc.name, stderr.String())
		}
	}
}

// TestRunPrice pins -price's whole breakdown on each OT backend, the
// one place the CPU, GPU and Ironman cost models meet a user.
func TestRunPrice(t *testing.T) {
	for _, tc := range []struct{ spec, out string }{
		{"Cheetah,ResNet50,lan,cpu", "" +
			"Cheetah / ResNet50 on LAN(3Gbps,0.15ms) with OT backend CPU(4 threads)\n" +
			"  nonlinear elements: 9.4 M, OT correlations: 0.80 G\n" +
			"  linear (HE)          10.2 s\n" +
			"  OT extension         65.2 s\n" +
			"  communication        23.0 s\n" +
			"  other                 5.0 s\n" +
			"  total               103.4 s  (OTE share 63.0%)\n"},
		{"Cheetah,ResNet50,lan,gpu", "" +
			"Cheetah / ResNet50 on LAN(3Gbps,0.15ms) with OT backend GPU(A6000)\n" +
			"  nonlinear elements: 9.4 M, OT correlations: 0.80 G\n" +
			"  linear (HE)          10.2 s\n" +
			"  OT extension          4.7 s\n" +
			"  communication        23.0 s\n" +
			"  other                 5.0 s\n" +
			"  total                42.9 s  (OTE share 10.8%)\n"},
		{"Cheetah,ResNet50,lan,ironman", "" +
			"Cheetah / ResNet50 on LAN(3Gbps,0.15ms) with OT backend Ironman(16ranks,1024KB)\n" +
			"  nonlinear elements: 9.4 M, OT correlations: 0.80 G\n" +
			"  linear (HE)          10.2 s\n" +
			"  OT extension          4.2 s\n" +
			"  communication        23.0 s\n" +
			"  other                 5.0 s\n" +
			"  total                42.5 s  (OTE share 10.0%)\n"},
		{"Bolt,BERT-Large,wan,gpu", "" +
			"Bolt / BERT-Large on WAN(400Mbps,20ms) with OT backend GPU(A6000)\n" +
			"  nonlinear elements: 25.3 M, OT correlations: 6.18 G\n" +
			"  linear (HE)          63.1 s\n" +
			"  OT extension         35.7 s\n" +
			"  communication       783.3 s\n" +
			"  other               101.6 s\n" +
			"  total               983.8 s  (OTE share 3.6%)\n"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(fake, []string{"-price", tc.spec}, &stdout, &stderr); code != 0 {
			t.Errorf("%s: exit %d (stderr %q)", tc.spec, code, stderr.String())
		}
		if stdout.String() != tc.out {
			t.Errorf("%s: stdout\n%s\nwant\n%s", tc.spec, stdout.String(), tc.out)
		}
	}
}

func TestRunJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(fake, []string{"-quick", "-json", "-exp", "ok"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	var doc struct {
		Meta        struct{ Quick bool }
		Experiments map[string]struct {
			Seconds  *float64
			Data     []int
			Headline experiments.Headline
		}
	}
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	e, ok := doc.Experiments["ok"]
	if !doc.Meta.Quick || !ok || len(doc.Experiments) != 1 || e.Seconds == nil || len(e.Data) != 2 || e.Headline.Value != 1.5 {
		t.Fatalf("unexpected document: %s", stdout.String())
	}
}
