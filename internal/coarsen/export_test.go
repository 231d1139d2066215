package coarsen

// ReferenceCoarsen exposes the rebuild-per-merge twin to the external
// test package, whose corpus (internal/gen) imports this package.
var ReferenceCoarsen = referenceCoarsen
