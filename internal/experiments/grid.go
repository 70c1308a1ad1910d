package experiments

import "slim/internal/eval"

// panel is one table of a sweep's grid: its title and how one cell prints.
type panel[C any] struct {
	title string
	cell  func(C) string
}

// grid renders a sweep's cells on a row × column grid, one table per panel.
// Both axes list their labels in first-seen order, so a sweep's loop order
// is its table layout; a grid point no cell landed on prints "-". corner
// heads the row-label column.
func grid[C any](cells []C, corner string, row, col func(C) string, panels ...panel[C]) []eval.Table {
	var rows, cols []string
	seenRow, seenCol := map[string]bool{}, map[string]bool{}
	at := map[[2]string]C{}
	for _, c := range cells {
		r, k := row(c), col(c)
		if !seenRow[r] {
			seenRow[r] = true
			rows = append(rows, r)
		}
		if !seenCol[k] {
			seenCol[k] = true
			cols = append(cols, k)
		}
		if _, dup := at[[2]string{r, k}]; !dup {
			at[[2]string{r, k}] = c
		}
	}
	tables := make([]eval.Table, len(panels))
	for i, p := range panels {
		tables[i] = eval.Table{Title: p.title, Header: append([]string{corner}, cols...)}
		for _, r := range rows {
			line := []string{r}
			for _, k := range cols {
				if c, ok := at[[2]string{r, k}]; ok {
					line = append(line, p.cell(c))
				} else {
					line = append(line, "-")
				}
			}
			tables[i].Rows = append(tables[i].Rows, line)
		}
	}
	return tables
}
