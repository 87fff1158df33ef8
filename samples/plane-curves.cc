{
  "differentials": [
    [
      [
        "x^2*y - x",
        "y^2 - x*y + x + 1"
      ]
    ],
    [
      [
        "-y^2 + x*y - x - 1"
      ],
      [
        "x^2*y - x"
      ]
    ]
  ],
  "ranks": [
    1,
    2,
    1
  ],
  "ring": {
    "field": {
      "kind": "rationals"
    },
    "laurent": false,
    "order": "grlex",
    "variables": [
      "x",
      "y"
    ]
  },
  "type": "free-complex"
}
