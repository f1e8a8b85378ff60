package workload

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/cluster"
	"repro/internal/pmf"
)

// Model serialization. §III-B assumes execution-time pmfs "may in practice
// be obtained by historical, experimental, or analytical techniques"; this
// file is that workflow's interface: a built Model — cluster, parameters,
// and the complete per-(type, node, P-state) pmf table — round-trips
// through JSON, so profiles measured elsewhere can be loaded and simulated,
// and generated models can be pinned as artifacts.

// jsonModel is the wire form of a Model.
type jsonModel struct {
	Params   Params             `json:"params"`
	Cluster  *cluster.Cluster   `json:"cluster"`
	Table    [][][]pmf.PMF      `json:"table"`
	TypeMean []float64          `json:"typeMean"`
	TAvg     float64            `json:"tAvg"`
	Rates    map[string]float64 `json:"rates"`
}

// WriteJSON serializes the model as one JSON object and a newline. It
// streams through a buffered writer, one json.Marshal per header field and
// one per task type's row of the pmf table, so its memory does not grow
// with the table; the bytes are those of one json.Encoder.Encode of the
// jsonModel, which every persisted model hash depends on.
func (m *Model) WriteJSON(w io.Writer) error {
	// A bufio.Writer keeps its first write error and returns it from Flush,
	// so only marshalling errors need tracking along the way.
	bw := bufio.NewWriter(w)
	var err error
	field := func(prefix string, v any) {
		if err != nil {
			return
		}
		var b []byte
		if b, err = json.Marshal(v); err == nil {
			bw.WriteString(prefix)
			bw.Write(b)
		}
	}
	field(`{"params":`, m.Params)
	field(`,"cluster":`, m.Cluster)
	bw.WriteString(`,"table":[`)
	for ti, row := range m.table {
		sep := ","
		if ti == 0 {
			sep = ""
		}
		field(sep, row)
	}
	field(`],"typeMean":`, m.typeMean)
	field(`,"tAvg":`, m.tAvg)
	field(`,"rates":`, map[string]float64{"fast": m.fastRate, "slow": m.slowRate})
	bw.WriteString("}\n")
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		return fmt.Errorf("workload: encode model: %w", err)
	}
	return nil
}

// Hash fingerprints the model: a short hex digest over its serialized
// form (cluster, parameters, and the full pmf table). Two models with the
// same hash produce identical schedules; the flight recorder, the WAL and
// the checkpoints stamp it into their headers so replay and recovery can
// refuse a mismatched rebuild. Map keys are sorted by encoding/json, so the
// digest is deterministic. A Model never changes after construction, so
// the digest is computed once and memoised.
func (m *Model) Hash() string {
	m.hashOnce.Do(func() {
		h := sha256.New()
		if err := m.WriteJSON(h); err != nil {
			// WriteJSON to a hash cannot fail on I/O; an encode failure
			// means an unserializable model, which the constructors never
			// build.
			m.hash = "unhashable"
			return
		}
		m.hash = hex.EncodeToString(h.Sum(nil)[:8])
	})
	return m.hash
}

// ReadModelJSON deserializes and validates a model. The pmf table must be
// complete and consistent with the cluster and parameters.
func ReadModelJSON(r io.Reader) (*Model, error) {
	var jm jsonModel
	if err := json.NewDecoder(r).Decode(&jm); err != nil {
		return nil, fmt.Errorf("workload: decode model: %w", err)
	}
	if jm.Cluster == nil {
		return nil, fmt.Errorf("workload: decode model: missing cluster")
	}
	if err := jm.Cluster.Validate(); err != nil {
		return nil, fmt.Errorf("workload: decode model: %w", err)
	}
	if err := jm.Params.Validate(); err != nil {
		return nil, fmt.Errorf("workload: decode model: %w", err)
	}
	p := jm.Params
	if len(jm.Table) != p.TaskTypes {
		return nil, fmt.Errorf("workload: decode model: table has %d task types, params say %d", len(jm.Table), p.TaskTypes)
	}
	if len(jm.TypeMean) != p.TaskTypes {
		return nil, fmt.Errorf("workload: decode model: %d type means for %d types", len(jm.TypeMean), p.TaskTypes)
	}
	for ti, byNode := range jm.Table {
		if len(byNode) != jm.Cluster.N() {
			return nil, fmt.Errorf("workload: decode model: type %d has %d nodes, cluster has %d", ti, len(byNode), jm.Cluster.N())
		}
		for ni, byState := range byNode {
			if len(byState) != cluster.NumPStates {
				return nil, fmt.Errorf("workload: decode model: type %d node %d has %d P-states", ti, ni, len(byState))
			}
			for si, dist := range byState {
				if err := dist.Validate(); err != nil {
					return nil, fmt.Errorf("workload: decode model: pmf (%d,%d,P%d): %w", ti, ni, si, err)
				}
			}
		}
	}
	for ti, m := range jm.TypeMean {
		// The negated comparison rejects NaN, which passes every ordering
		// test and would otherwise corrupt arrival calibration silently.
		if !(m > 0) || math.IsInf(m, 0) {
			return nil, fmt.Errorf("workload: decode model: type %d mean %v must be positive and finite", ti, m)
		}
	}
	// The lattice step is tAvg/LatticeRes, so a denormal tAvg must not
	// round it to zero.
	if !(jm.TAvg/LatticeRes > 0) || math.IsInf(jm.TAvg, 0) {
		return nil, fmt.Errorf("workload: decode model: tAvg %v must be positive and finite", jm.TAvg)
	}
	fast, slow := jm.Rates["fast"], jm.Rates["slow"]
	if !(fast > 0 && slow > 0) || math.IsInf(fast, 0) || math.IsInf(slow, 0) {
		return nil, fmt.Errorf("workload: decode model: rates %v must be positive and finite", jm.Rates)
	}
	m := &Model{
		Params:   p,
		Cluster:  jm.Cluster,
		table:    jm.Table,
		typeMean: jm.TypeMean,
		tAvg:     jm.TAvg,
		fastRate: fast,
		slowRate: slow,
		classOf:  assignClasses(p.Classes, p.TaskTypes),
	}
	m.buildMeans()
	m.buildLattice()
	return m, nil
}
