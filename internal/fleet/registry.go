package fleet

import "fmt"

// RouterByName builds a fresh router from its policy name — the same
// names the routers report via Name(). Stateful routers (qos-aware)
// are constructed new on every call, so two runs never share weight
// state. Data-driven drivers (scenario specs, sweep tables) resolve
// policies through this registry instead of switching on strings.
func RouterByName(name string) (Router, error) {
	switch name {
	case "uniform":
		return Uniform{}, nil
	case "least-loaded":
		return LeastLoaded{}, nil
	case "qos-aware":
		return &QoSAware{}, nil
	}
	return nil, fmt.Errorf("fleet: unknown router %q", name)
}

// ArbiterByName builds an arbiter from its policy name, mirroring
// RouterByName.
func ArbiterByName(name string) (Arbiter, error) {
	switch name {
	case "proportional":
		return Proportional{}, nil
	case "headroom":
		return Headroom{}, nil
	}
	return nil, fmt.Errorf("fleet: unknown arbiter %q", name)
}
