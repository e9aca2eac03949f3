package eval

// RegisteredNames lists every registered scalar function and every
// aggregate, for tests outside the package.
func RegisteredNames() []string {
	names := make([]string, 0, len(scalarFunctions)+len(aggregateNames))
	for n := range scalarFunctions {
		names = append(names, n)
	}
	for n := range aggregateNames {
		names = append(names, n)
	}
	return names
}
