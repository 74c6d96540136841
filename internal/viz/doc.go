// Package viz renders Pareto frontiers as SVG — the counterpart of the
// prototype feature the paper describes in Section 4: "Our prototype
// allows to visualize two and three dimensional projections of the Pareto
// frontier" (Figure 4). Three-dimensional projections are rendered as an
// isometric scatter with depth-cued markers, the style of the paper's
// Figure 4.
//
// Only the standard library is used; the emitted SVG is self-contained
// and viewable in any browser.
package viz
