package dataframe

// SharesStorage reports whether a and b read one codes slice and one Null
// mask (both nil counts as one).
func SharesStorage(a, b *Series) bool {
	return len(a.codes) > 0 && len(b.codes) > 0 && &a.codes[0] == &b.codes[0] &&
		len(a.Null) == len(b.Null) && (a.Null == nil || &a.Null[0] == &b.Null[0])
}
