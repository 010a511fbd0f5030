package main

import (
	"fmt"
	"io"
	"strings"

	"ironman/internal/ppml"
	"ironman/internal/simnet"
)

// price prints one private inference's end-to-end breakdown (the
// Table 5 / Figure 1(a) model) for spec =
// "framework,model,network,backend", e.g. "Cheetah,ResNet50,lan,ironman".
// It returns the exit status: 2 for a malformed or unknown spec.
func price(spec string, stdout, stderr io.Writer) int {
	fields := strings.Split(spec, ",")
	if len(fields) != 4 {
		fmt.Fprintf(stderr, "-price wants framework,model,network,backend, got %q\n", spec)
		return 2
	}
	var fw ppml.Framework
	for _, f := range []ppml.Framework{ppml.CrypTFlow2, ppml.Cheetah, ppml.Bolt, ppml.SiRNN} {
		if f.Name == fields[0] {
			fw = f
		}
	}
	if fw.Name == "" {
		fmt.Fprintf(stderr, "unknown framework %q (valid: CrypTFlow2 Cheetah Bolt EzPC-SiRNN)\n", fields[0])
		return 2
	}
	model, ok := ppml.ModelByName(fields[1])
	if !ok {
		fmt.Fprintf(stderr, "unknown model %q\n", fields[1])
		return 2
	}
	if !fw.Supports(model) {
		fmt.Fprintf(stderr, "%s does not evaluate %s\n", fw.Name, model.Name)
		return 2
	}
	var net simnet.Network
	switch strings.ToLower(fields[2]) {
	case "lan":
		net = simnet.LAN
	case "wan":
		net = simnet.WAN
	default:
		fmt.Fprintf(stderr, "unknown network %q (valid: lan wan)\n", fields[2])
		return 2
	}
	var ot ppml.OTBackend
	switch fields[3] {
	case "cpu":
		ot = ppml.CPUBackend{}
	case "gpu":
		ot = ppml.GPUBackend{}
	case "ironman":
		ot = ppml.DefaultIronman()
	default:
		fmt.Fprintf(stderr, "unknown backend %q (valid: cpu gpu ironman)\n", fields[3])
		return 2
	}

	lat := ppml.EndToEnd(fw, model, net, ot)
	fmt.Fprintf(stdout, "%s / %s on %s with OT backend %s\n", fw.Name, model.Name, net.Name, ot.Name())
	fmt.Fprintf(stdout, "  nonlinear elements: %.1f M, OT correlations: %.2f G\n",
		float64(model.TotalNonlinear())/1e6, float64(fw.OTCount(model))/1e9)
	fmt.Fprintf(stdout, "  linear (HE)      %8.1f s\n", lat.Linear)
	fmt.Fprintf(stdout, "  OT extension     %8.1f s\n", lat.OTE)
	fmt.Fprintf(stdout, "  communication    %8.1f s\n", lat.OnlineComm)
	fmt.Fprintf(stdout, "  other            %8.1f s\n", lat.Other)
	fmt.Fprintf(stdout, "  total            %8.1f s  (OTE share %.1f%%)\n", lat.Total(), 100*lat.OTEFraction())
	return 0
}
