package fm

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"smartfeat/internal/dataframe"
)

// Task labels the interaction types the SMARTFEAT prompt templates encode.
// The templates put a "Task:" header line in every prompt (LangChain-style
// structured prompting); the simulated FM dispatches on it.
const (
	TaskProposeUnary     = "propose-unary"
	TaskSampleBinary     = "sample-binary"
	TaskSampleHighOrder  = "sample-highorder"
	TaskSampleExtractor  = "sample-extractor"
	TaskGenerateFunction = "generate-function"
	TaskCompleteRow      = "complete-row"
)

// SeriesColumn summarises a frame column as the FM's agenda view: kind,
// cardinality, range for numerics and up to eight levels for categoricals.
// An empty description falls back to the column name. Each statistic scans
// the whole column, so callers summarise a column once and keep the result.
func SeriesColumn(col *dataframe.Series, description string) AgendaColumn {
	if description == "" {
		description = col.Name
	}
	info := AgendaColumn{
		Name:        col.Name,
		Description: description,
		Numeric:     col.Kind == dataframe.Numeric,
	}
	if info.Numeric {
		info.Cardinality = col.Cardinality()
		info.Min, info.Max = col.Min(), col.Max()
	} else {
		levels := col.Levels()
		info.Cardinality = len(levels)
		if len(levels) > 8 {
			levels = levels[:8]
		}
		info.Levels = levels
	}
	return info
}

// FormatAgendaColumn renders one data-agenda line in the canonical format the
// prompt templates use and the simulated FM parses:
//
//   - Name (numeric, card=57, min=18, max=79): description
//   - Name (categorical, card=3, levels=[SF|LA|SEA]): description
func FormatAgendaColumn(col AgendaColumn) string {
	var meta strings.Builder
	if col.Numeric {
		fmt.Fprintf(&meta, "numeric, card=%d, min=%s, max=%s",
			col.Cardinality, trimNum(col.Min), trimNum(col.Max))
	} else {
		fmt.Fprintf(&meta, "categorical, card=%d", col.Cardinality)
		if len(col.Levels) > 0 {
			levels := append([]string(nil), col.Levels...)
			sort.Strings(levels)
			if len(levels) > 8 {
				levels = levels[:8]
			}
			fmt.Fprintf(&meta, ", levels=[%s]", strings.Join(levels, "|"))
		}
	}
	return fmt.Sprintf("- %s (%s): %s", col.Name, meta.String(), col.Description)
}

// ParseAgendaColumn inverts FormatAgendaColumn. It returns an error for
// lines that do not follow the canonical shape.
func ParseAgendaColumn(line string) (AgendaColumn, error) {
	var col AgendaColumn
	line = strings.TrimSpace(line)
	line = strings.TrimPrefix(line, "- ")
	open := strings.Index(line, " (")
	if open < 0 {
		return col, fmt.Errorf("fm: agenda line missing metadata: %q", line)
	}
	close := strings.Index(line[open:], "): ")
	if close < 0 {
		return col, fmt.Errorf("fm: agenda line missing description separator: %q", line)
	}
	close += open
	col.Name = line[:open]
	col.Description = line[close+len("): "):]
	meta := line[open+2 : close]
	parts := strings.Split(meta, ", ")
	for i, p := range parts {
		if i == 0 {
			col.Numeric = p == "numeric"
			continue
		}
		kv := strings.SplitN(p, "=", 2)
		if len(kv) != 2 {
			continue
		}
		switch kv[0] {
		case "card":
			col.Cardinality, _ = strconv.Atoi(kv[1])
		case "min":
			col.Min, _ = strconv.ParseFloat(kv[1], 64)
		case "max":
			col.Max, _ = strconv.ParseFloat(kv[1], 64)
		case "levels":
			v := strings.TrimSuffix(strings.TrimPrefix(kv[1], "["), "]")
			if v != "" {
				col.Levels = strings.Split(v, "|")
			}
		}
	}
	return col, nil
}

func trimNum(v float64) string {
	s := strconv.FormatFloat(v, 'g', 6, 64)
	return s
}

// promptFields is the structured view of a parsed prompt.
type promptFields struct {
	Task        string
	Agenda      []AgendaColumn
	Target      string
	Model       string
	Attribute   string
	NewFeature  string
	RelevantCol []string
	Operator    string
	Description string
	Row         string
}

// parsePrompt extracts the header fields and agenda block from a prompt.
func parsePrompt(prompt string) (promptFields, error) {
	var f promptFields
	inAgenda := false
	for _, raw := range strings.Split(prompt, "\n") {
		line := strings.TrimSpace(raw)
		switch {
		case strings.HasPrefix(line, "Task:"):
			f.Task = strings.TrimSpace(strings.TrimPrefix(line, "Task:"))
		case strings.HasPrefix(line, "Dataset description:"):
			inAgenda = true
		case inAgenda && strings.HasPrefix(line, "- "):
			col, err := ParseAgendaColumn(line)
			if err != nil {
				return f, err
			}
			f.Agenda = append(f.Agenda, col)
		case strings.HasPrefix(line, "Prediction class:"):
			inAgenda = false
			f.Target = strings.TrimSpace(strings.TrimPrefix(line, "Prediction class:"))
		case strings.HasPrefix(line, "Downstream model:"):
			f.Model = strings.TrimSpace(strings.TrimPrefix(line, "Downstream model:"))
		case strings.HasPrefix(line, "Attribute:"):
			f.Attribute = strings.TrimSpace(strings.TrimPrefix(line, "Attribute:"))
		case strings.HasPrefix(line, "New feature:"):
			f.NewFeature = strings.TrimSpace(strings.TrimPrefix(line, "New feature:"))
		case strings.HasPrefix(line, "Relevant columns:"):
			cols := strings.Split(strings.TrimPrefix(line, "Relevant columns:"), ",")
			for _, c := range cols {
				if c = strings.TrimSpace(c); c != "" {
					f.RelevantCol = append(f.RelevantCol, c)
				}
			}
		case strings.HasPrefix(line, "Operator:"):
			f.Operator = strings.TrimSpace(strings.TrimPrefix(line, "Operator:"))
		case strings.HasPrefix(line, "Description:"):
			f.Description = strings.TrimSpace(strings.TrimPrefix(line, "Description:"))
		case strings.HasPrefix(line, "Row:"):
			f.Row = strings.TrimSpace(strings.TrimPrefix(line, "Row:"))
		default:
			if line != "" && !strings.HasPrefix(line, "- ") {
				inAgenda = false
			}
		}
	}
	if f.Task == "" {
		return f, fmt.Errorf("fm: prompt missing Task header")
	}
	return f, nil
}

// findColumn looks a name up in the parsed agenda.
func findColumn(agenda []AgendaColumn, name string) (AgendaColumn, bool) {
	for _, c := range agenda {
		if c.Name == name {
			return c, true
		}
	}
	return AgendaColumn{}, false
}
