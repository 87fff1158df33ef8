{
  "differentials": [
    [
      [
        "0",
        "0"
      ],
      [
        "2*x^2*y + 2*y",
        "2*x*y"
      ],
      [
        "2*x*y + y",
        "0"
      ]
    ],
    [
      [
        "0",
        "0",
        "0",
        "0"
      ],
      [
        "0",
        "0",
        "0",
        "0"
      ]
    ]
  ],
  "ranks": [
    3,
    2,
    4
  ],
  "ring": {
    "field": {
      "kind": "prime-field",
      "p": 3
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
