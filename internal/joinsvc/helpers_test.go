package joinsvc

import "sort"

// DatasetNames returns the registered names in sorted order.
func (s *Service) DatasetNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.datasets))
	for n, d := range s.datasets {
		if d != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}
