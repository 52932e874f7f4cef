package oracle

import (
	"bytes"
	"fmt"
	"testing"

	"strider/internal/arch"
	"strider/internal/core/jit"
	"strider/internal/heap"
	"strider/internal/ir"
	"strider/internal/memsim"
	"strider/internal/progfuzz"
	"strider/internal/static"
	"strider/internal/vm"
	"strider/internal/workloads"
)

// twinProfile records the profile PGO cell c replays, as Verify does: on
// c's dynamic twin, run under the hardware model hw.
func twinProfile(build func() *ir.Program, c Configuration, heapBytes uint32, hw string) *static.Profile {
	twin := c
	twin.Predict = jit.PredictDynamic
	twin.HW = hw
	prof := static.NewProfile(c.Label())
	runCell(build, twin, heapBytes, heap.GCSlidingCompact, prof)
	return prof
}

// replaySteps returns the inspection steps a warmup+measure pair of PGO
// cell c spends when replaying prof.
func replaySteps(build func() *ir.Program, c Configuration, heapBytes uint32, prof *static.Profile) int {
	m := *c.Machine
	jo := jit.DefaultOptions(&m, c.Mode)
	jo.Inspect.Interprocedural = c.Interprocedural
	jo.Predict = c.Predict
	jo.Profile = prof
	v := vm.New(build(), vm.Config{Machine: &m, Mode: c.Mode, HeapBytes: heapBytes, JIT: &jo})
	stats, err := v.Run(nil)
	if err == nil {
		v.ResetRun()
		stats, _ = v.Run(nil)
	}
	return stats.InspectSteps
}

func saved(t *testing.T, p *static.Profile) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := p.Save(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestPGOProfileIsHWModelBlind justifies recording each PGO cell's profile
// during its dynamic twin under the first hardware model rather than in a
// separate run under the default one: the profile saves to the same bytes
// under every model, because inspection reads heap values and hardware
// prefetching only moves lines between cache levels. Replaying it spends
// the same inspection steps, so a PGO cell that inspected nothing still
// inspects nothing.
func TestPGOProfileIsHWModelBlind(t *testing.T) {
	jess, err := workloads.ByName("jess")
	if err != nil {
		t.Fatal(err)
	}
	programs := []struct {
		name      string
		build     func() *ir.Program
		heapBytes uint32
	}{{"jess", func() *ir.Program { return jess.Build(workloads.SizeSmall) }, jess.HeapBytes}}
	for _, seed := range []uint64{3, 9, 1601} {
		programs = append(programs, struct {
			name      string
			build     func() *ir.Program
			heapBytes uint32
		}{fmt.Sprintf("fuzz:%d", seed), func() *ir.Program { return progfuzz.Program(seed) }, 8 << 20})
	}
	models := memsim.HWModels()
	zeroSteps, recorded := 0, 0
	for _, p := range programs {
		for _, c := range PredictConfigurations(arch.Machines()) {
			if c.Predict != jit.PredictPGO {
				continue
			}
			// The PGO cell itself runs under the default model, so a
			// profiling run of its own configuration would record this.
			want := twinProfile(p.build, c, p.heapBytes, memsim.DefaultHWModel)
			wantBytes := saved(t, want)
			recorded += want.Len()
			for _, hw := range models {
				got := twinProfile(p.build, c, p.heapBytes, hw)
				if !bytes.Equal(saved(t, got), wantBytes) {
					t.Errorf("%s %s: profile recorded under %q differs from the default model's",
						p.name, c.Label(), hw)
				}
			}
			before := replaySteps(p.build, c, p.heapBytes, want)
			after := replaySteps(p.build, c, p.heapBytes, twinProfile(p.build, c, p.heapBytes, models[0]))
			if before != after {
				t.Errorf("%s %s: replay inspects %d steps, %d with the default model's profile",
					p.name, c.Label(), after, before)
			}
			if after == 0 {
				zeroSteps++
			}
		}
	}
	if recorded == 0 {
		t.Error("no profile recorded a loop; the byte comparison is vacuous")
	}
	t.Logf("%d loops recorded, %d PGO cells replay without inspecting", recorded, zeroSteps)
	if zeroSteps == 0 {
		t.Error("no PGO cell replays without inspecting; the InspectSteps check is vacuous")
	}
}
