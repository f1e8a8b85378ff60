// Package cluster models the heterogeneous compute cluster of §III-A and
// Fig. 1: N nodes, each with n(i) multicore processors of c(i) cores; all
// cores within a node are homogeneous, while nodes differ in performance
// and power efficiency. Each core supports the five ACPI P-states P0..P4;
// P0 is the fastest and most power-hungry, P4 the slowest and cheapest.
//
// The per-node P-state profile follows §VI exactly:
//
//   - clock-speed multipliers grow 15–25% per P-state step, with the
//     minimum operating frequency at least 42% of the maximum;
//   - P0 power is drawn from U(125,135) W, the P4 voltage from
//     U(1.000,1.150), the P0 voltage from U(1.400,1.550), the intermediate
//     voltages by linear interpolation, and μ(i,π) = A·C_L·V²·f (Eq. 7)
//     with A·C_L factored out of the P0 draw;
//   - the node power-supply efficiency ε(i) is drawn from U(0.90,0.98).
package cluster

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/randx"
)

// NumPStates is |P|, the number of ACPI P-states the paper assumes (§III-A).
const NumPStates = 5

// PState identifies an ACPI performance state. P0 is the base (fastest,
// highest power) state; P4 the slowest and lowest power.
type PState int

// The five P-states.
const (
	P0 PState = iota
	P1
	P2
	P3
	P4
)

// Valid reports whether p is one of the five modeled P-states.
func (p PState) Valid() bool { return p >= P0 && p < NumPStates }

// String returns "P0".."P4".
func (p PState) String() string { return fmt.Sprintf("P%d", int(p)) }

// AllPStates lists the P-states in order P0..P4.
func AllPStates() []PState {
	return []PState{P0, P1, P2, P3, P4}
}

// Node is one heterogeneous compute node.
type Node struct {
	// Processors is n(i), the number of multicore processors (1–4).
	Processors int `json:"processors"`
	// CoresPerProc is c(i), the cores per multicore processor (1–4).
	CoresPerProc int `json:"coresPerProc"`
	// Efficiency is ε(i), the power-supply efficiency in [0.90, 0.98].
	Efficiency float64 `json:"efficiency"`
	// Freq[π] is the relative operating frequency of P-state π, with
	// Freq[P0] = 1 (the base state) and lower values for deeper states.
	Freq [NumPStates]float64 `json:"freq"`
	// Voltage[π] is the supply voltage of P-state π in volts.
	Voltage [NumPStates]float64 `json:"voltage"`
	// Power[π] is μ(i,π): the average power in watts a core of this node
	// consumes while in P-state π.
	Power [NumPStates]float64 `json:"power"`
}

// TimeMult returns the execution-time multiplier of P-state π relative to
// P0: an execution-time distribution for P0 is scaled by this factor when
// the core runs in π (§VI). TimeMult(P0) == 1.
func (n *Node) TimeMult(p PState) float64 { return n.Freq[P0] / n.Freq[p] }

// Cores returns the number of cores in the node: n(i)·c(i).
func (n *Node) Cores() int { return n.Processors * n.CoresPerProc }

// Validate checks the node against the model's structural constraints.
func (n *Node) Validate() error {
	if n.Processors < 1 {
		return fmt.Errorf("cluster: node has %d processors, need >= 1", n.Processors)
	}
	if n.CoresPerProc < 1 {
		return fmt.Errorf("cluster: node has %d cores per processor, need >= 1", n.CoresPerProc)
	}
	if n.Efficiency <= 0 || n.Efficiency > 1 {
		return fmt.Errorf("cluster: efficiency %v outside (0,1]", n.Efficiency)
	}
	for p := 1; p < NumPStates; p++ {
		if n.Freq[p] >= n.Freq[p-1] {
			return fmt.Errorf("cluster: frequency not decreasing at P%d (%v >= %v)", p, n.Freq[p], n.Freq[p-1])
		}
		if n.Power[p] >= n.Power[p-1] {
			return fmt.Errorf("cluster: power not decreasing at P%d (%v >= %v)", p, n.Power[p], n.Power[p-1])
		}
	}
	for p := 0; p < NumPStates; p++ {
		if n.Freq[p] <= 0 {
			return fmt.Errorf("cluster: frequency %v at P%d not positive", n.Freq[p], p)
		}
		if n.Power[p] <= 0 {
			return fmt.Errorf("cluster: power %v at P%d not positive", n.Power[p], p)
		}
	}
	return nil
}

// CoreID addresses core k of multicore processor j in node i — the (i,j,k)
// triple used throughout the paper.
type CoreID struct {
	Node int `json:"node"`
	Proc int `json:"proc"`
	Core int `json:"core"`
}

// String renders the triple as "n<i>.p<j>.c<k>".
func (c CoreID) String() string { return fmt.Sprintf("n%d.p%d.c%d", c.Node, c.Proc, c.Core) }

// Cluster is the full machine: an ordered list of heterogeneous nodes plus
// a flattened core index for O(1) iteration over all cores.
type Cluster struct {
	Nodes []Node `json:"nodes"`

	// cores is the flattened index, built on first use; the Once makes that
	// safe when concurrent runs share one cluster.
	coresOnce sync.Once
	cores     []CoreID
}

// ErrNoNodes is returned for clusters without nodes.
var ErrNoNodes = errors.New("cluster: no nodes")

// Validate checks every node and the overall structure.
func (c *Cluster) Validate() error {
	if len(c.Nodes) == 0 {
		return ErrNoNodes
	}
	for i := range c.Nodes {
		if err := c.Nodes[i].Validate(); err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
	}
	return nil
}

// N returns the number of nodes.
func (c *Cluster) N() int { return len(c.Nodes) }

// TotalCores returns the number of cores in the cluster.
func (c *Cluster) TotalCores() int {
	t := 0
	for i := range c.Nodes {
		t += c.Nodes[i].Cores()
	}
	return t
}

// Cores returns the flattened list of all core IDs, in (node, proc, core)
// lexicographic order. The slice is cached; callers must not mutate it.
func (c *Cluster) Cores() []CoreID {
	c.coresOnce.Do(func() {
		c.cores = make([]CoreID, 0, c.TotalCores())
		for i := range c.Nodes {
			for j := 0; j < c.Nodes[i].Processors; j++ {
				for k := 0; k < c.Nodes[i].CoresPerProc; k++ {
					c.cores = append(c.cores, CoreID{Node: i, Proc: j, Core: k})
				}
			}
		}
	})
	return c.cores
}

// CoreIndex returns the position of id in Cores(), or -1 if id does not
// address a core of this cluster.
func (c *Cluster) CoreIndex(id CoreID) int {
	if id.Node < 0 || id.Node >= len(c.Nodes) {
		return -1
	}
	n := &c.Nodes[id.Node]
	if id.Proc < 0 || id.Proc >= n.Processors || id.Core < 0 || id.Core >= n.CoresPerProc {
		return -1
	}
	idx := 0
	for i := 0; i < id.Node; i++ {
		idx += c.Nodes[i].Cores()
	}
	return idx + id.Proc*n.CoresPerProc + id.Core
}

// Node returns the node hosting the given core.
func (c *Cluster) Node(id CoreID) *Node { return &c.Nodes[id.Node] }

// AvgPower returns p_avg (Eq. 8): the average of μ(i,π) over all nodes and
// all P-states. Used to size the energy constraint (§VI).
func (c *Cluster) AvgPower() float64 {
	s := 0.0
	for i := range c.Nodes {
		for p := 0; p < NumPStates; p++ {
			s += c.Nodes[i].Power[p]
		}
	}
	return s / float64(len(c.Nodes)*NumPStates)
}

// AvgTimeMult returns the mean execution-time multiplier over all nodes and
// P-states; with CVB base means this converts the P0 grand mean into the
// all-P-state average task execution time t_avg of §VI.
func (c *Cluster) AvgTimeMult() float64 {
	s := 0.0
	for i := range c.Nodes {
		for _, p := range AllPStates() {
			s += c.Nodes[i].TimeMult(p)
		}
	}
	return s / float64(len(c.Nodes)*NumPStates)
}

// GenParams configures random cluster generation; the zero value is not
// usable — use PaperGenParams for the paper's configuration.
type GenParams struct {
	// Nodes is N, the number of compute nodes.
	Nodes int
	// MaxProcessors bounds n(i) (drawn uniformly from 1..MaxProcessors).
	MaxProcessors int
	// MaxCoresPerProc bounds c(i) (drawn uniformly from 1..MaxCoresPerProc).
	MaxCoresPerProc int
	// PerfStepLo/PerfStepHi bound the per-P-state performance increase
	// (paper: 15%–25%).
	PerfStepLo, PerfStepHi float64
	// MinFreqRatio is the lower bound on f(P4)/f(P0) (paper: 0.42).
	MinFreqRatio float64
	// BasePowerLo/BasePowerHi bound the P0 power draw in watts
	// (paper: 125–135 W).
	BasePowerLo, BasePowerHi float64
	// VLowLo/VLowHi bound the P4 voltage (paper: 1.000–1.150 V).
	VLowLo, VLowHi float64
	// VHighLo/VHighHi bound the P0 voltage (paper: 1.400–1.550 V).
	VHighLo, VHighHi float64
	// EffLo/EffHi bound the power supply efficiency (paper: 0.90–0.98).
	EffLo, EffHi float64
}

// PaperGenParams returns the generation parameters of §III-A and §VI:
// 8 nodes, 1–4 processors of 1–4 cores, 15–25% performance steps with a 42%
// minimum frequency ratio, 125–135 W base power, 1.000–1.150 V low and
// 1.400–1.550 V high voltages, and 90–98% supply efficiency.
func PaperGenParams() GenParams {
	return GenParams{
		Nodes:           8,
		MaxProcessors:   4,
		MaxCoresPerProc: 4,
		PerfStepLo:      0.15,
		PerfStepHi:      0.25,
		MinFreqRatio:    0.42,
		BasePowerLo:     125,
		BasePowerHi:     135,
		VLowLo:          1.000,
		VLowHi:          1.150,
		VHighLo:         1.400,
		VHighHi:         1.550,
		EffLo:           0.90,
		EffHi:           0.98,
	}
}

// Validate reports whether the generation parameters are usable.
func (g GenParams) Validate() error {
	switch {
	case g.Nodes < 1:
		return fmt.Errorf("cluster: Nodes %d must be >= 1", g.Nodes)
	case g.MaxProcessors < 1 || g.MaxCoresPerProc < 1:
		return fmt.Errorf("cluster: processor/core bounds must be >= 1")
	case g.PerfStepLo <= 0 || g.PerfStepHi < g.PerfStepLo:
		return fmt.Errorf("cluster: bad performance step range [%v,%v]", g.PerfStepLo, g.PerfStepHi)
	case g.MinFreqRatio <= 0 || g.MinFreqRatio >= 1:
		return fmt.Errorf("cluster: MinFreqRatio %v outside (0,1)", g.MinFreqRatio)
	case g.BasePowerLo <= 0 || g.BasePowerHi < g.BasePowerLo:
		return fmt.Errorf("cluster: bad base power range [%v,%v]", g.BasePowerLo, g.BasePowerHi)
	case g.VLowLo <= 0 || g.VLowHi < g.VLowLo:
		return fmt.Errorf("cluster: bad low-voltage range [%v,%v]", g.VLowLo, g.VLowHi)
	case g.VHighLo <= g.VLowHi || g.VHighHi < g.VHighLo:
		return fmt.Errorf("cluster: bad high-voltage range [%v,%v]", g.VHighLo, g.VHighHi)
	case g.EffLo <= 0 || g.EffHi < g.EffLo || g.EffHi > 1:
		return fmt.Errorf("cluster: bad efficiency range [%v,%v]", g.EffLo, g.EffHi)
	}
	return nil
}

// Generate builds a random heterogeneous cluster from the stream.
func Generate(s *randx.Stream, g GenParams) (*Cluster, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{Nodes: make([]Node, g.Nodes)}
	for i := range c.Nodes {
		c.Nodes[i] = generateNode(s, g)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: generated invalid cluster: %w", err)
	}
	return c, nil
}

func generateNode(s *randx.Stream, g GenParams) Node {
	n := Node{
		Processors:   1 + s.IntN(g.MaxProcessors),
		CoresPerProc: 1 + s.IntN(g.MaxCoresPerProc),
		Efficiency:   s.Uniform(g.EffLo, g.EffHi),
	}
	// Frequencies: build upward from P4 with 15–25% performance steps,
	// rejecting draws that violate the 42% minimum frequency ratio, then
	// normalize so Freq[P0] = 1.
	for {
		f := 1.0
		var freq [NumPStates]float64
		freq[NumPStates-1] = f
		for p := NumPStates - 2; p >= 0; p-- {
			f *= 1 + s.Uniform(g.PerfStepLo, g.PerfStepHi)
			freq[p] = f
		}
		if freq[NumPStates-1]/freq[0] < g.MinFreqRatio {
			continue
		}
		inv := 1 / freq[0]
		for p := range freq {
			freq[p] *= inv
		}
		freq[0] = 1 // exact, despite rounding in the normalization above
		n.Freq = freq
		break
	}
	// Voltages: P4 and P0 drawn, the rest linearly interpolated (§VI).
	vLow := s.Uniform(g.VLowLo, g.VLowHi)
	vHigh := s.Uniform(g.VHighLo, g.VHighHi)
	for p := 0; p < NumPStates; p++ {
		frac := float64(p) / float64(NumPStates-1) // 0 at P0, 1 at P4
		n.Voltage[p] = vHigh + frac*(vLow-vHigh)
	}
	// Power: draw P0 power, factor out A·C_L, apply Eq. 7 per state.
	p0 := s.Uniform(g.BasePowerLo, g.BasePowerHi)
	acl := p0 / (n.Voltage[P0] * n.Voltage[P0] * n.Freq[P0])
	for p := 0; p < NumPStates; p++ {
		n.Power[p] = acl * n.Voltage[p] * n.Voltage[p] * n.Freq[p]
	}
	return n
}
