package core

import (
	"fmt"
	"strconv"
	"strings"

	"smartfeat/internal/dataframe"
	"smartfeat/internal/fm"
)

// Prompt templates (Table 2). Every template opens with a Task header, the
// current data agenda, the prediction class and the downstream model — the
// three inputs of §3.1 — followed by the operator-specific instruction.

// promptHeader renders the shared prefix of every operator-selector prompt.
func promptHeader(task string, a *Agenda, model string) string {
	var b strings.Builder
	b.WriteString("You are assisting with automated feature engineering for a tabular dataset.\n")
	fmt.Fprintf(&b, "Task: %s\n", task)
	b.WriteString(a.Render())
	fmt.Fprintf(&b, "Prediction class: %s (%s)\n", a.Target(), a.TargetDescription())
	fmt.Fprintf(&b, "Downstream model: %s\n", model)
	return b.String()
}

// unaryPrompt is the proposal-strategy template for unary operators
// (Table 2, row 1).
func unaryPrompt(a *Agenda, model, attribute string) string {
	return promptHeader(fm.TaskProposeUnary, a, model) + fmt.Sprintf(
		"Attribute: %s\n"+
			"Consider the unary operators on the attribute %q that can generate helpful features to predict %q. "+
			"List all possible appropriate operators and your confidence levels (certain/high/medium/low), "+
			"one per line, formatted as \"operator (confidence): description\".\n",
		attribute, attribute, a.Target())
}

// binaryPrompt is the sampling-strategy template for the four arithmetic
// binary operators.
func binaryPrompt(a *Agenda, model string) string {
	return promptHeader(fm.TaskSampleBinary, a, model) +
		"Sample one helpful binary feature for predicting the class by combining two numeric attributes " +
		"with one of the arithmetic operators +, -, *, /. " +
		"Respond with a single JSON object: {\"op\": add|subtract|multiply|divide, \"left\": col, \"right\": col, " +
		"\"name\": feature_name, \"description\": text}.\n"
}

// highOrderPrompt is the sampling-strategy template for GroupbyThenAgg
// (Table 2, row 2).
func highOrderPrompt(a *Agenda, model string) string {
	return promptHeader(fm.TaskSampleHighOrder, a, model) + fmt.Sprintf(
		"Generate a groupby feature for predicting %q by applying "+
			"'df.groupby(groupby_col)[agg_col].transform(function)'. "+
			"Specify the groupby_col, agg_col, and the aggregation function. "+
			"Respond with a single JSON object: {\"groupby_col\": [cols], \"agg_col\": col, \"function\": mean|max|min|sum|std|count|median}.\n",
		a.Target())
}

// extractorPrompt is the sampling-strategy template for extractors.
func extractorPrompt(a *Agenda, model string) string {
	return promptHeader(fm.TaskSampleExtractor, a, model) +
		"Sample one extractor feature: a complex transformation such as a composite index over several attributes, " +
		"or information extracted from an attribute using external knowledge (for example the population density of a city). " +
		"Respond with a single JSON object: {\"kind\": composite|external|rowlevel|datasource, \"name\": feature_name, " +
		"\"description\": text, \"columns\": [cols]}.\n"
}

// functionPrompt asks the function-generator FM for an executable
// transformation (Figure 2, right side).
func functionPrompt(a *Agenda, model string, c Candidate) string {
	return promptHeader(fm.TaskGenerateFunction, a, model) + fmt.Sprintf(
		"New feature: %s\n"+
			"Relevant columns: %s\n"+
			"Operator: %s\n"+
			"Description: %s\n"+
			"Generate the optimal transformation function to obtain the new feature %q (output) using the relevant "+
			"columns (input). Respond with a single JSON object describing the transformation "+
			"(kinds: bucketize, minmax, standardize, expr, dummies, datesplit, groupby, mapvalues, rowlevel, datasource).\n",
		c.Name, strings.Join(c.Inputs, ", "), c.Operator, c.Description, c.Name)
}

// rowPrompt asks for a row-level completion of row i of f — the
// masked-token interaction of Figure 1 that SMARTFEAT avoids for whole
// datasets but falls back to when no explicit function exists (§3.3).
func rowPrompt(feature string, f *dataframe.Frame, i int) string {
	return string(newRowTemplate(feature).append(nil, f, i))
}

// rowTemplate is the part of rowPrompt that is the same for every row of one
// feature, its head and tail rendered once, so a row loop refills one buffer
// with the serialized row between them.
type rowTemplate struct{ head, tail string }

func newRowTemplate(feature string) rowTemplate {
	return rowTemplate{
		head: "You are assisting with automated feature engineering for a tabular dataset.\n" +
			"Task: " + fm.TaskCompleteRow + "\n" +
			"New feature: " + feature + "\nRow: ",
		tail: ", " + feature + ": ?\nProvide only the value for the masked attribute " + strconv.Quote(feature) + ".\n",
	}
}

// append appends rowPrompt(feature, f, i) to dst.
func (t rowTemplate) append(dst []byte, f *dataframe.Frame, i int) []byte {
	dst = append(dst, t.head...)
	dst = f.AppendRow(dst, i)
	return append(dst, t.tail...)
}
