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
