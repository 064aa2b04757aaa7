package cloud

import (
	"maps"
	"slices"

	"crystalnet/internal/sim"
)

// Fork returns a deep copy of the provider on eng — every VM's lifecycle
// state, CPU accounting and core schedule; a VM's clone is the fork's VM of
// the same ID. Each VM's armed background failures are re-armed on eng
// under the keys they were armed with, so they fire at the same instants,
// and break same-instant ties the same way, as in the source: eng is
// restored from a snapshot of the source's engine, taken with nothing but
// those failures pending. The source provider is read strictly read-only,
// so concurrent forks are safe.
//
// OnFailure (and the other hooks) are left nil for the caller to wire to
// the fork's own recovery path. Boot waiters are not copied: they are
// pending closures, and forks are only taken at quiescence, when every
// boot callback has already fired.
func (p *Provider) Fork(eng *sim.Engine) *Provider {
	c := &Provider{
		eng:   eng,
		next:  p.next,
		MTBF:  p.MTBF,
		Retry: p.Retry,
	}
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
			busy:         maps.Clone(vm.busy),
			coreFree:     slices.Clone(vm.coreFree),
			bootAttempts: vm.bootAttempts,
			failures:     slices.Clone(vm.failures),
			provider:     c,
		}
		for _, k := range nv.failures {
			eng.DaemonAt(k, func() { c.failureFired(nv, k) })
		}
		c.vms[i] = nv
	}
	return c
}
