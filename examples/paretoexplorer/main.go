// Pareto explorer: the paper's Figure 4 as a tool. All MOQO algorithms
// produce an (approximate) Pareto frontier as a byproduct of optimization;
// users who cannot judge what bounds and weights are realistic explore
// that frontier first. This example computes the three-dimensional
// frontier of TPC-H Q5 over tuple loss, buffer footprint and total time at
// two precisions and writes both as CSV (ready for plotting) while
// printing a 2-D projection as an ASCII scatter plot.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"moqo"
)

func main() {
	cat := moqo.TPCHCatalog(1)
	q, err := moqo.TPCHQuery(5, cat)
	if err != nil {
		log.Fatal(err)
	}
	objs := []moqo.Objective{moqo.TupleLoss, moqo.BufferFootprint, moqo.TotalTime}

	for _, alpha := range []float64{2, 1.25} {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		res, err := moqo.OptimizeContext(ctx, moqo.Request{
			Query:      q,
			Algorithm:  moqo.AlgoRTA,
			Alpha:      alpha,
			Objectives: objs,
			Weights:    map[moqo.Objective]float64{moqo.TotalTime: 1},
		})
		cancel()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("alpha=%.4g: %d frontier plans in %s\n",
			alpha, len(res.Frontier), res.Stats.Duration.Round(time.Millisecond))

		name := fmt.Sprintf("frontier_q5_alpha%.4g.csv", alpha)
		f, err := os.Create(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(f, "tuple_loss,buffer_bytes,time_ms")
		for _, v := range res.FrontierVectors() {
			fmt.Fprintf(f, "%.6f,%.1f,%.4f\n",
				v.Get(moqo.TupleLoss), v.Get(moqo.BufferFootprint), v.Get(moqo.TotalTime))
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n\n", name)

		// 2-D projection: time versus tuple loss.
		fmt.Println(asciiScatter(res, 56, 14))
	}
}

// asciiScatter plots time (y) against tuple loss (x).
func asciiScatter(res *moqo.Result, w, h int) string {
	maxT := 0.0
	for _, v := range res.FrontierVectors() {
		if t := v.Get(moqo.TotalTime); t > maxT {
			maxT = t
		}
	}
	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = make([]byte, w)
		for j := range grid[i] {
			grid[i][j] = ' '
		}
	}
	for _, v := range res.FrontierVectors() {
		x := int(v.Get(moqo.TupleLoss) * float64(w-1))
		y := h - 1 - int(v.Get(moqo.TotalTime)/maxT*float64(h-1))
		grid[y][x] = '*'
	}
	out := fmt.Sprintf("time (max %.0f ms)\n", maxT)
	for _, row := range grid {
		out += "|" + string(row) + "\n"
	}
	out += "+" + repeat('-', w) + " tuple loss (0..1)\n"
	return out
}

func repeat(ch byte, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = ch
	}
	return string(b)
}
