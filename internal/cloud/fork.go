package cloud

import "crystalnet/internal/sim"

// Fork returns a deep copy of the provider on eng — every VM's lifecycle
// state, CPU accounting and core schedule — plus a translation map from the
// source's VMs to their clones for the orchestration layer's placement
// bookkeeping. The source provider is read strictly read-only, so
// concurrent forks are safe.
//
// OnFailure (and the other hooks) are left nil for the caller to wire to
// the fork's own recovery path. Boot waiters are not copied: they are
// pending closures, and forks are only taken at quiescence, when every
// boot callback has already fired.
func (p *Provider) Fork(eng *sim.Engine) (*Provider, map[*VM]*VM) {
	c := &Provider{
		eng:   eng,
		next:  p.next,
		MTBF:  p.MTBF,
		Retry: p.Retry,
	}
	vmMap := make(map[*VM]*VM, len(p.vms))
	c.vms = make([]*VM, len(p.vms))
	for i, vm := range p.vms {
		nv := &VM{
			ID:           vm.ID,
			Name:         vm.Name,
			SKU:          vm.SKU,
			Group:        vm.Group,
			state:        vm.state,
			provisioned:  vm.provisioned,
			started:      vm.started,
			stopped:      vm.stopped,
			runAccum:     vm.runAccum,
			coreFree:     append([]sim.Time(nil), vm.coreFree...),
			bootAttempts: vm.bootAttempts,
			provider:     c,
		}
		if vm.busy != nil {
			nv.busy = make(map[int]float64, len(vm.busy))
			for minute, cs := range vm.busy {
				nv.busy[minute] = cs
			}
		}
		c.vms[i] = nv
		vmMap[vm] = nv
	}
	return c, vmMap
}
