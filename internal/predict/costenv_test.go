package predict

import (
	"clara/internal/cir"
	"clara/internal/lnic"
	"clara/internal/mapper"
)

// newCostEnv builds a prediction's cost environment on nic the way a
// prediction on a target with no kept tables does: the tables and the call
// sites are built for it. npu must be nic's pricing unit.
func newCostEnv(prog *cir.Program, m *mapper.Mapping, nic *lnic.LNIC, npu *lnic.ComputeUnit, wl mapper.Workload, cm *mapper.CostModel, resourceLoad bool) *costEnv {
	var t targetTables
	t.init(nic)
	if t.npu != npu {
		panic("newCostEnv: npu is not the target's pricing unit")
	}
	e := new(costEnv)
	e.init(&t, newCallSites(prog), prog, m, nic, wl, cm, resourceLoad)
	return e
}
