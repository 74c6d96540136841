package viz

import (
	"fmt"
	"math"
	"strings"

	"moqo/internal/objective"
)

// Style configures plot rendering.
type Style struct {
	Width, Height int // canvas size in pixels
	Margin        int // axis margin
	PointRadius   int // marker radius
	Title         string
}

// DefaultStyle returns a reasonable plot style.
func DefaultStyle(title string) Style {
	return Style{Width: 640, Height: 480, Margin: 60, PointRadius: 4, Title: title}
}

// Scatter3D renders the projection of cost vectors onto three objectives
// as an isometric SVG scatter (the paper's Figure 4 style): x and y span
// the floor plane, z is height; markers darken with depth.
func Scatter3D(vs []objective.Vector, x, y, z objective.ID, st Style) string {
	var b strings.Builder
	openSVG(&b, st)
	maxX, maxY, maxZ := 1e-12, 1e-12, 1e-12
	for _, v := range vs {
		maxX = math.Max(maxX, v[x])
		maxY = math.Max(maxY, v[y])
		maxZ = math.Max(maxZ, v[z])
	}
	w := float64(st.Width - 2*st.Margin)
	h := float64(st.Height - 2*st.Margin)
	// Isometric basis: x runs right-down, y runs left-down, z runs up.
	proj := func(vx, vy, vz float64) (float64, float64) {
		nx, ny, nz := vx/maxX, vy/maxY, vz/maxZ
		px := float64(st.Width)/2 + (nx-ny)*w*0.35
		py := float64(st.Margin) + h*0.55 + (nx+ny)*h*0.2 - nz*h*0.45
		return px, py
	}
	// Floor grid for orientation.
	for i := 0; i <= 4; i++ {
		f := float64(i) / 4
		x1, y1 := proj(f, 0, 0)
		x2, y2 := proj(f, 1, 0)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#ddd"/>`+"\n", x1, y1, x2, y2)
		x1, y1 = proj(0, f, 0)
		x2, y2 = proj(1, f, 0)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#ddd"/>`+"\n", x1, y1, x2, y2)
	}
	// Vertical droplines plus markers (proj normalizes raw costs).
	for _, v := range vs {
		px, py := proj(v[x], v[y], v[z])
		fx, fy := proj(v[x], v[y], 0)
		depth := (v[x]/maxX + v[y]/maxY) / 2
		shade := int(40 + 160*depth)
		if shade > 200 {
			shade = 200
		}
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#bbb" stroke-dasharray="2,2"/>`+"\n", fx, fy, px, py)
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="%d" fill="rgb(%d,%d,220)"/>`+"\n",
			px, py, st.PointRadius, shade, shade)
	}
	axisLabel3D(&b, st, proj, x.String(), maxX*1.08, 0, 0)
	axisLabel3D(&b, st, proj, y.String(), 0, maxY*1.08, 0)
	axisLabel3D(&b, st, proj, z.String(), 0, 0, maxZ*1.08)
	closeSVG(&b)
	return b.String()
}

func axisLabel3D(b *strings.Builder, st Style, proj func(float64, float64, float64) (float64, float64), label string, x, y, z float64) {
	px, py := proj(x, y, z)
	fmt.Fprintf(b, `<text x="%.1f" y="%.1f" font-size="12" fill="#333">%s</text>`+"\n", px, py, escape(label))
}

func openSVG(b *strings.Builder, st Style) {
	fmt.Fprintf(b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		st.Width, st.Height, st.Width, st.Height)
	fmt.Fprintf(b, `<rect width="%d" height="%d" fill="white"/>`+"\n", st.Width, st.Height)
	if st.Title != "" {
		fmt.Fprintf(b, `<text x="%d" y="20" font-size="14" font-weight="bold" fill="#111">%s</text>`+"\n",
			st.Margin, escape(st.Title))
	}
}

func closeSVG(b *strings.Builder) { b.WriteString("</svg>\n") }

func escape(s string) string {
	s = strings.ReplaceAll(s, "&", "&amp;")
	s = strings.ReplaceAll(s, "<", "&lt;")
	s = strings.ReplaceAll(s, ">", "&gt;")
	return s
}
