package obs

import "fmt"

// validName reports whether name is a bare Prometheus metric name
// (`syssim_events_total`): a letter, '_' or ':' followed by letters,
// digits, '_' or ':'. The name is the registry key and the run
// report's counters key, so label blocks are not part of the grammar.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func mustValidName(name string) {
	if !validName(name) {
		//lint:allow nakedpanic metric names are compile-time instrumentation constants; a malformed one is a programmer error
		panic(fmt.Sprintf("obs: malformed metric name %q", name))
	}
}
